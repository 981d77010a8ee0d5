/**
 * @file
 * Pre-alignment filter study: evaluate candidate mapping locations with
 * the classic filter family (BaseCount, SHD, GateKeeper, SneakySnake)
 * and run the SneakySnake x Light Alignment combination the paper's §8
 * names as promising future work.
 *
 * This demonstrates the filters/ public API on a single read pair so
 * the decisions are easy to follow; bench/ablation_filters runs the
 * same machinery over full datasets.
 *
 * Run: ./build/examples/prefilter_study
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "filters/base_count.hh"
#include "filters/edit_distance.hh"
#include "filters/filtered_light_align.hh"
#include "filters/gatekeeper.hh"
#include "filters/shd_filter.hh"
#include "filters/sneakysnake.hh"
#include "simdata/genome_generator.hh"
#include "util/rng.hh"

int
main()
{
    using namespace gpx;
    using genomics::DnaSequence;

    // A reference and a read sampled from it with one edit event: a
    // two-base deletion (a Table 1 case, so the fast path can align it).
    simdata::GenomeParams gp;
    gp.length = 1 << 20;
    gp.seed = 99;
    genomics::Reference ref = simdata::generateGenome(gp);

    const GlobalPos origin = 123456;
    DnaSequence truth = ref.window(origin, 152);
    DnaSequence read;
    for (std::size_t i = 0; i < truth.size(); ++i)
        if (i < 80 || i >= 82) // drop bases 80-81: a 2-base deletion
            read.push(truth.at(i));
    std::printf("read: 150 bp sampled at %llu with a 2-base deletion\n\n",
                static_cast<unsigned long long>(origin));

    // Evaluate the true location and a decoy with every filter.
    const u32 budget = 5;
    struct Candidate
    {
        const char *label;
        GlobalPos pos;
    };
    const Candidate candidates[] = { { "true origin", origin },
                                     { "decoy (+50 kbp)", origin + 50000 } };

    std::vector<std::unique_ptr<filters::PreAlignmentFilter>> bank;
    bank.push_back(std::make_unique<filters::BaseCountFilter>());
    bank.push_back(std::make_unique<filters::ShdFilter>());
    bank.push_back(std::make_unique<filters::GateKeeperFilter>());
    bank.push_back(std::make_unique<filters::SneakySnakeFilter>());

    for (const auto &cand : candidates) {
        const GlobalPos from = cand.pos - budget;
        DnaSequence window =
            ref.window(from, read.size() + 2 * static_cast<u64>(budget));
        u32 oracle =
            filters::candidateEditDistance(read, window, budget, budget);
        std::printf("candidate %-16s true edit distance %u\n", cand.label,
                    oracle);
        for (const auto &f : bank) {
            auto d = f->evaluate(read, window, budget, budget);
            std::printf("  %-12s estimate %2u -> %s\n", f->name().c_str(),
                        d.estimatedEdits,
                        d.accept ? "accept" : "reject");
        }
    }

    // The §8 combination: SneakySnake gates the Light Aligner. The true
    // origin passes the gate and light-aligns (score + CIGAR, no DP);
    // the decoy dies at the gate without costing a single hypothesis.
    filters::SneakySnakeFilter gate;
    genpair::LightAlignParams lightParams;
    filters::FilteredLightAligner combo(ref, lightParams, gate);
    for (const auto &cand : candidates) {
        auto r = combo.align(read, cand.pos);
        if (r.aligned)
            std::printf("\n%s: light-aligned at %llu, score %d, CIGAR %s",
                        cand.label,
                        static_cast<unsigned long long>(r.pos), r.score,
                        r.cigar().toString().c_str());
        else
            std::printf("\n%s: not aligned (gate or light-align reject)",
                        cand.label);
    }
    const auto &st = combo.stats();
    std::printf("\n\ncombo stats: %llu candidates, %llu gate rejects, "
                "%llu light-aligned, %llu hypotheses spent\n",
                static_cast<unsigned long long>(st.candidates),
                static_cast<unsigned long long>(st.gateRejected),
                static_cast<unsigned long long>(st.lightAligned),
                static_cast<unsigned long long>(st.hypothesesTried));
    return 0;
}
