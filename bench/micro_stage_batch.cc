/**
 * @file
 * micro_stage_batch — batched SoA stage graph vs the monolithic
 * per-pair pipeline it replaced.
 *
 * The seed GenPairPipeline::mapPair() materialized four read
 * orientations, four candidate vectors and two candidate-pair vectors
 * per pair, and every light-alignment attempt rebuilt its bit planes
 * and Hamming masks from scratch (~17 allocations per attempt at ~11.6
 * attempts per pair). The stage graph (stages.hh) runs the same work
 * over structure-of-arrays batches with every scratch buffer reused.
 * This harness replays the seed implementation verbatim (`monolith`)
 * next to the batched engine across batch sizes and every SIMD backend
 * the host supports (scalar / AVX2 / AVX-512 — the batch kernels of
 * util/simd.hh), single-threaded (the per-core win; thread scaling is
 * micro_driver_scaling's job), checks the mappings and stats are
 * identical under every backend, and records the per-backend grid with
 * fallback fractions and candidate counts with `--json` (see
 * BENCH_stage_batch.json at the repo root, gated by
 * scripts/check_stage_batch.py).
 */

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hh"
#include "genpair/pipeline.hh"
#include "oracles/oracles.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "util/version.hh"

namespace {

using namespace gpx;

/**
 * The seed DP fallback engine, verbatim in behavior: Mm2Lite as it
 * stood before this PR, running the branchy, per-call-allocating
 * reference DP kernel (align::fitAlignRef). The production Mm2Lite now
 * reuses an AlignScratch and the branchless engine; replaying the seed
 * behavior needs this replica.
 */
class SeedMm2Lite
{
  public:
    SeedMm2Lite(const genomics::Reference &ref,
                const baseline::Mm2LiteParams &params,
                std::shared_ptr<const baseline::MinimizerIndex> index)
        : ref_(ref), params_(params), index_(std::move(index))
    {
    }

    genomics::Mapping
    alignAt(const genomics::DnaSequence &read, GlobalPos pos, u32 slack)
    {
        genomics::Mapping m;
        auto [wstart, wlen] = clampWindow(pos, read.size(), slack);
        if (wlen < read.size())
            return m;
        genomics::DnaView window = ref_.windowView(wstart, wlen);
        auto res = align::fitAlignRef(read, window, params_.scoring,
                                      static_cast<i32>(2 * slack + 32));
        if (!res.valid || res.score < params_.minAlignScore)
            return m;
        m.mapped = true;
        m.pos = wstart + res.targetStart;
        m.score = res.score;
        m.cigar = std::move(res.cigar);
        return m;
    }

    genomics::PairMapping
    mapPair(const genomics::ReadPair &pair)
    {
        auto cands1 = mapRead(pair.first);
        auto cands2 = mapRead(pair.second);

        genomics::PairMapping best;
        best.path = genomics::MappingPath::FullDpFallback;
        i64 bestScore = -1;
        for (const auto &m1 : cands1) {
            for (const auto &m2 : cands2) {
                if (m1.reverse == m2.reverse)
                    continue;
                const genomics::Mapping &left = m1.reverse ? m2 : m1;
                const genomics::Mapping &right = m1.reverse ? m1 : m2;
                if (right.pos < left.pos)
                    continue;
                u64 span = right.pos + right.cigar.refSpan() - left.pos;
                if (span > params_.maxInsert)
                    continue;
                i64 score = static_cast<i64>(m1.score) + m2.score;
                if (score > bestScore) {
                    bestScore = score;
                    best.first = m1;
                    best.second = m2;
                }
            }
        }
        if (bestScore >= 0)
            return best;
        if (!cands1.empty())
            best.first = cands1.front();
        if (!cands2.empty())
            best.second = cands2.front();
        if (!best.first.mapped && !best.second.mapped)
            best.path = genomics::MappingPath::Unmapped;
        return best;
    }

  private:
    std::pair<GlobalPos, u64>
    clampWindow(GlobalPos pos, u64 len, u64 slack) const
    {
        genomics::ChromPos cp = ref_.toChromPos(pos);
        u64 chromLen = ref_.chromosomeLength(cp.chrom);
        u64 lo = cp.offset > slack ? cp.offset - slack : 0;
        u64 hi = std::min<u64>(chromLen, cp.offset + len + slack);
        GlobalPos start = ref_.chromosomeStart(cp.chrom) + lo;
        return { start, hi > lo ? hi - lo : 0 };
    }

    std::vector<genomics::Mapping>
    mapRead(const genomics::Read &read)
    {
        using align::Anchor;
        const u32 k = params_.minimizers.k;
        auto mins =
            baseline::extractMinimizers(read.seq, params_.minimizers);
        std::vector<Anchor> anchors;
        for (const auto &m : mins) {
            for (const auto &e : index_->lookup(m.hash)) {
                bool reverse = m.reverse != e.reverse;
                Anchor a;
                a.length = k;
                a.reverse = reverse;
                a.queryPos = reverse ? read.seq.size() - k - m.pos
                                     : m.pos;
                a.refPos = e.pos;
                anchors.push_back(a);
            }
        }

        std::vector<align::Chain> chains;
        std::vector<Anchor> fwd, rev;
        for (const auto &a : anchors)
            (a.reverse ? rev : fwd).push_back(a);
        for (auto *side : { &fwd, &rev }) {
            auto part = align::chainAnchors(*side, params_.chain);
            for (auto &c : part)
                chains.push_back(std::move(c));
        }
        std::sort(chains.begin(), chains.end(),
                  [](const align::Chain &a, const align::Chain &b) {
                      return a.score > b.score;
                  });
        if (chains.size() > params_.maxCandidates)
            chains.resize(params_.maxCandidates);

        std::vector<genomics::Mapping> mappings;
        genomics::DnaSequence rc;
        bool haveRc = false;
        for (const auto &chain : chains) {
            const genomics::DnaSequence *query = &read.seq;
            if (chain.reverse) {
                if (!haveRc) {
                    rc = read.seq.revComp();
                    haveRc = true;
                }
                query = &rc;
            }
            GlobalPos expect = chain.refStart > chain.queryStart
                                   ? chain.refStart - chain.queryStart
                                   : 0;
            auto [wstart, wlen] =
                clampWindow(expect, query->size(), params_.alignSlack);
            if (wlen < query->size())
                continue;
            genomics::DnaView window = ref_.windowView(wstart, wlen);
            auto res = align::fitAlignRef(
                *query, window, params_.scoring,
                static_cast<i32>(2 * params_.alignSlack + 32));
            if (!res.valid || res.score < params_.minAlignScore)
                continue;
            genomics::Mapping m;
            m.mapped = true;
            m.pos = wstart + res.targetStart;
            m.reverse = chain.reverse;
            m.score = res.score;
            m.cigar = std::move(res.cigar);
            mappings.push_back(std::move(m));
        }

        std::sort(mappings.begin(), mappings.end(),
                  [](const genomics::Mapping &a,
                     const genomics::Mapping &b) {
                      return a.score > b.score;
                  });
        std::vector<genomics::Mapping> unique;
        unique.reserve(mappings.size());
        std::unordered_set<u64> seen;
        seen.reserve(mappings.size() * 2);
        for (auto &m : mappings) {
            const u64 key = (m.pos << 1) | (m.reverse ? 1u : 0u);
            if (seen.insert(key).second)
                unique.push_back(std::move(m));
        }
        return unique;
    }

    const genomics::Reference &ref_;
    baseline::Mm2LiteParams params_;
    std::shared_ptr<const baseline::MinimizerIndex> index_;
};

/**
 * The seed (pre-stage-graph) pipeline, verbatim in behavior: one
 * monolithic call per pair, per-pair owned orientations and candidate
 * vectors, allocating light alignment, seed DP fallback. The honest
 * pre-refactor baseline the batched engine is measured against.
 */
class MonolithPipeline
{
  public:
    MonolithPipeline(const genomics::Reference &ref,
                     const genpair::SeedMapView &map,
                     const genpair::GenPairParams &params,
                     SeedMm2Lite *fallback)
        : map_(map), params_(params), seeder_(map),
          light_(ref, params.light), fallback_(fallback)
    {
    }

    genomics::PairMapping
    mapPair(const genomics::ReadPair &pair)
    {
        using genomics::DnaSequence;
        using genomics::Mapping;
        using genomics::MappingPath;
        using genomics::PairMapping;
        using genpair::CandidatePair;
        using genpair::LightResult;

        ++stats_.pairsTotal;

        DnaSequence r1f = pair.first.seq;
        DnaSequence r1r = pair.first.seq.revComp();
        DnaSequence r2f = pair.second.seq;
        DnaSequence r2r = pair.second.seq.revComp();

        struct Oriented
        {
            const DnaSequence *left;
            const DnaSequence *right;
            bool read1IsLeft;
            std::vector<CandidatePair> cands;
        };
        Oriented orients[2] = {
            { &r1f, &r2r, true, {} },
            { &r2f, &r1r, false, {} },
        };

        u64 totalLocations = 0;
        for (auto &o : orients) {
            auto leftCands = genpair::queryCandidates(
                map_, seeder_.extract(*o.left), stats_.query);
            auto rightCands = genpair::queryCandidates(
                map_, seeder_.extract(*o.right), stats_.query);
            totalLocations += leftCands.size() + rightCands.size();
            o.cands = genpair::pairedAdjacencyFilter(
                leftCands, rightCands, params_.delta, stats_.query);
            stats_.candidatePairs += o.cands.size();
        }

        auto fullDp = [&](u64 &counter) -> PairMapping {
            ++counter;
            PairMapping out = fallback_->mapPair(pair);
            out.path = MappingPath::FullDpFallback;
            if (out.bothMapped() || out.first.mapped || out.second.mapped)
                ++stats_.fullDpMapped;
            else
                ++stats_.unmapped;
            return out;
        };

        if (totalLocations == 0)
            return fullDp(stats_.seedMissFallback);
        if (orients[0].cands.empty() && orients[1].cands.empty())
            return fullDp(stats_.paFilterFallback);

        struct Best
        {
            bool found = false;
            i64 score = 0;
            LightResult left;
            LightResult right;
            bool read1IsLeft = true;
        } best;

        for (const auto &o : orients) {
            u32 budget = params_.maxCandidatePairs;
            for (const auto &cand : o.cands) {
                if (budget-- == 0)
                    break;
                LightResult la = light_.align(*o.left, cand.leftStart);
                ++stats_.lightAlignsAttempted;
                stats_.lightHypotheses += la.hypothesesTried;
                if (!la.aligned)
                    continue;
                LightResult ra = light_.align(*o.right, cand.rightStart);
                ++stats_.lightAlignsAttempted;
                stats_.lightHypotheses += ra.hypothesesTried;
                if (!ra.aligned)
                    continue;
                i64 score = static_cast<i64>(la.score) + ra.score;
                if (!best.found || score > best.score) {
                    best.found = true;
                    best.score = score;
                    best.left = la;
                    best.right = ra;
                    best.read1IsLeft = o.read1IsLeft;
                }
            }
        }

        if (best.found) {
            ++stats_.lightAligned;
            PairMapping out;
            out.path = MappingPath::LightAligned;
            Mapping leftMap, rightMap;
            leftMap.mapped = true;
            leftMap.pos = best.left.pos;
            leftMap.score = best.left.score;
            leftMap.cigar = best.left.cigar();
            leftMap.reverse = false;
            rightMap.mapped = true;
            rightMap.pos = best.right.pos;
            rightMap.score = best.right.score;
            rightMap.cigar = best.right.cigar();
            rightMap.reverse = true;
            if (best.read1IsLeft) {
                out.first = std::move(leftMap);
                out.second = std::move(rightMap);
            } else {
                leftMap.reverse = false;
                rightMap.reverse = true;
                out.second = std::move(leftMap);
                out.first = std::move(rightMap);
            }
            return out;
        }

        ++stats_.lightAlignFallback;

        struct DpBest
        {
            bool found = false;
            i64 score = 0;
            Mapping left;
            Mapping right;
            bool read1IsLeft = true;
        } dpBest;

        for (const auto &o : orients) {
            u32 budget = std::max<u32>(4, params_.maxCandidatePairs / 4);
            for (const auto &cand : o.cands) {
                if (budget-- == 0)
                    break;
                Mapping lm = fallback_->alignAt(*o.left, cand.leftStart,
                                                params_.dpSlack);
                if (!lm.mapped || lm.score < params_.minDpScore)
                    continue;
                Mapping rm = fallback_->alignAt(
                    *o.right, cand.rightStart, params_.dpSlack);
                if (!rm.mapped || rm.score < params_.minDpScore)
                    continue;
                i64 score = static_cast<i64>(lm.score) + rm.score;
                if (!dpBest.found || score > dpBest.score) {
                    dpBest.found = true;
                    dpBest.score = score;
                    dpBest.left = std::move(lm);
                    dpBest.right = std::move(rm);
                    dpBest.read1IsLeft = o.read1IsLeft;
                }
            }
        }

        PairMapping out;
        if (dpBest.found) {
            ++stats_.dpAligned;
            out.path = MappingPath::DpAlignFallback;
            dpBest.left.reverse = false;
            dpBest.right.reverse = true;
            if (dpBest.read1IsLeft) {
                out.first = std::move(dpBest.left);
                out.second = std::move(dpBest.right);
            } else {
                out.second = std::move(dpBest.left);
                out.first = std::move(dpBest.right);
            }
        } else {
            ++stats_.unmapped;
            out.path = MappingPath::Unmapped;
        }
        return out;
    }

    const genpair::PipelineStats &stats() const { return stats_; }

  private:
    genpair::SeedMapView map_;
    genpair::GenPairParams params_;
    genpair::PartitionedSeeder seeder_;
    genpair::LightAligner light_;
    SeedMm2Lite *fallback_;
    genpair::PipelineStats stats_;
};

struct Row
{
    std::string name;
    std::string simd;
    u64 batchPairs;
    double pairsPerSec;

    double
    speedupVs(double base) const
    {
        return base > 0 ? pairsPerSec / base : 0;
    }
};

bool
sameMapping(const genomics::PairMapping &a, const genomics::PairMapping &b)
{
    return a.path == b.path && a.first.pos == b.first.pos &&
           a.second.pos == b.second.pos &&
           a.first.score == b.first.score &&
           a.second.score == b.second.score;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    using namespace gpx::bench;

    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json needs a path\n");
                return 2;
            }
            jsonPath = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    banner("Batched SoA stage graph vs monolithic per-pair pipeline",
           "stage-graph engine PR; single-thread mapping hot path");

    // Capture the session's dispatch provenance before the backend
    // sweep overwrites it with "(forced)".
    const std::string simdContext = simdContextJson();

    // The micro_driver_scaling dataset: small enough for a grid,
    // large enough that the light path dominates.
    simdata::Dataset dataset = simdata::buildDataset(
        simdata::datasetConfig(1, u64{ 2 } << 20, 6000));
    const auto &ref = *dataset.reference;
    genpair::SeedMap seedmap(ref, genpair::SeedMapParams{});
    const auto &pairs = dataset.pairs;
    const u64 n = pairs.size();
    genpair::GenPairParams params;

    // One shared minimizer index: engine construction is a pool
    // start-up cost in both eras and is not what this harness measures.
    baseline::Mm2LiteParams mm2Params;
    auto sharedIndex = std::make_shared<const baseline::MinimizerIndex>(
        ref, mm2Params.minimizers);
    SeedMm2Lite seedMm2(ref, mm2Params, sharedIndex);
    baseline::Mm2Lite mm2(ref, mm2Params, sharedIndex);

    // Reference output (and warm-up): the monolith once, serial.
    std::vector<genomics::PairMapping> monolithOut(n);
    {
        MonolithPipeline warm(ref, seedmap, params, &seedMm2);
        for (u64 i = 0; i < n; ++i)
            monolithOut[i] = warm.mapPair(pairs[i]);
    }

    auto timeMonolith = [&]() {
        MonolithPipeline pipeline(ref, seedmap, params, &seedMm2);
        util::Stopwatch watch;
        for (u64 i = 0; i < n; ++i)
            monolithOut[i] = pipeline.mapPair(pairs[i]);
        return watch.seconds();
    };

    std::vector<genomics::PairMapping> batchedOut(n);
    genpair::PipelineStats batchedStats;
    auto timeBatched = [&](u64 batchPairs) {
        genpair::GenPairPipeline pipeline(ref, seedmap, params, &mm2);
        util::Stopwatch watch;
        for (u64 begin = 0; begin < n; begin += batchPairs) {
            const u64 end = std::min(n, begin + batchPairs);
            pipeline.mapBatch(pairs.data() + begin, end - begin,
                              batchedOut.data() + begin);
        }
        double secs = watch.seconds();
        batchedStats = pipeline.stats();
        return secs;
    };

    // Reference stats, once: the monolith counters every batched run
    // (any backend, any batch size) must reproduce exactly.
    genpair::PipelineStats monolithStats;
    {
        MonolithPipeline check(ref, seedmap, params, &seedMm2);
        for (u64 i = 0; i < n; ++i)
            check.mapPair(pairs[i]);
        monolithStats = check.stats();
    }

    // The refactor must not change a single mapping or stats counter —
    // under any SIMD backend.
    auto crossCheck = [&](u64 batchPairs) {
        timeBatched(batchPairs);
        for (u64 i = 0; i < n; ++i) {
            if (!sameMapping(monolithOut[i], batchedOut[i])) {
                std::fprintf(
                    stderr,
                    "batched(%llu, %s)/monolith mismatch at pair %llu\n",
                    static_cast<unsigned long long>(batchPairs),
                    util::simdBackendName(util::activeSimdBackend()),
                    static_cast<unsigned long long>(i));
                std::exit(1);
            }
        }
        const auto &a = monolithStats;
        const auto &b = batchedStats;
        if (a.lightAligned != b.lightAligned ||
            a.candidatePairs != b.candidatePairs ||
            a.lightAlignsAttempted != b.lightAlignsAttempted ||
            a.query.filterIterations != b.query.filterIterations ||
            a.unmapped != b.unmapped) {
            std::fprintf(stderr, "stats mismatch at batch %llu (%s)\n",
                         static_cast<unsigned long long>(batchPairs),
                         util::simdBackendName(util::activeSimdBackend()));
            std::exit(1);
        }
    };

    // Every backend the host can execute gets its own grid sweep; the
    // vectorized-vs-scalar ratio is a within-run contract gated by
    // scripts/check_stage_batch.py.
    const util::SimdBackend defaultBackend = util::activeSimdBackend();
    std::vector<util::SimdBackend> backends;
    for (util::SimdBackend want :
         { util::SimdBackend::Scalar, util::SimdBackend::Avx2,
           util::SimdBackend::Avx512 })
        if (util::forceSimdBackend(want) == want)
            backends.push_back(want);
    util::forceSimdBackend(defaultBackend);

    const std::vector<u64> batchGrid{ 1, 16, 64, 256, n };
    std::vector<genpair::PipelineStats> backendStats(backends.size());
    for (std::size_t bk = 0; bk < backends.size(); ++bk) {
        util::forceSimdBackend(backends[bk]);
        for (u64 b : batchGrid)
            crossCheck(b);
        backendStats[bk] = batchedStats;
    }

    // Interleaved best-of-N: every engine sees the same host noise.
    constexpr int kReps = 3;
    std::vector<std::vector<double>> batchedSecs(
        backends.size(),
        std::vector<double>(batchGrid.size(),
                            std::numeric_limits<double>::infinity()));
    double monolithSecs = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
        monolithSecs = std::min(monolithSecs, timeMonolith());
        for (std::size_t bk = 0; bk < backends.size(); ++bk) {
            util::forceSimdBackend(backends[bk]);
            for (std::size_t g = 0; g < batchGrid.size(); ++g)
                batchedSecs[bk][g] = std::min(batchedSecs[bk][g],
                                              timeBatched(batchGrid[g]));
        }
    }
    util::forceSimdBackend(defaultBackend);

    const double monolithRate =
        monolithSecs > 0 ? n / monolithSecs : 0;
    std::vector<Row> rows;
    rows.push_back({ "monolith (seed mapPair)", "-", 0, monolithRate });
    for (std::size_t bk = 0; bk < backends.size(); ++bk)
        for (std::size_t g = 0; g < batchGrid.size(); ++g)
            rows.push_back({ batchGrid[g] == n
                                 ? "stage graph (whole set)"
                                 : "stage graph",
                             util::simdBackendName(backends[bk]),
                             batchGrid[g],
                             batchedSecs[bk][g] > 0
                                 ? n / batchedSecs[bk][g]
                                 : 0 });

    util::Table table(
        { "engine", "simd", "batch", "pairs/s", "vs monolith" });
    for (const auto &row : rows) {
        table.row()
            .cell(row.name)
            .cell(row.simd)
            .cell(static_cast<double>(row.batchPairs), 0)
            .cell(row.pairsPerSec, 0)
            .cell(row.speedupVs(monolithRate), 2);
    }
    table.print("single-thread mapping hot path");

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        auto num = [](double v, int prec) {
            std::ostringstream str;
            str << std::fixed << std::setprecision(prec) << v;
            return str.str();
        };
        out << "{\n  \"bench\": \"micro_stage_batch\",\n"
            << "  \"gpx_version\": \"" << kVersion << "\",\n"
            << "  \"pairs\": " << n << ",\n"
            << "  \"threads\": 1,\n"
            << "  \"context\": " << simdContext << ",\n"
            << "  \"monolith_pairs_per_s\": " << num(monolithRate, 0)
            << ",\n  \"grid\": [\n";
        for (std::size_t bk = 0; bk < backends.size(); ++bk) {
            const auto &st = backendStats[bk];
            const u64 fallbacks = st.seedMissFallback +
                                  st.paFilterFallback +
                                  st.lightAlignFallback;
            const double fallbackFraction =
                st.pairsTotal
                    ? static_cast<double>(fallbacks) / st.pairsTotal
                    : 0;
            for (std::size_t g = 0; g < batchGrid.size(); ++g) {
                double rate = batchedSecs[bk][g] > 0
                                  ? n / batchedSecs[bk][g]
                                  : 0;
                out << "    {\"backend\": \""
                    << util::simdBackendName(backends[bk])
                    << "\", \"dp_lanes\": "
                    << util::simdDpLanes(backends[bk])
                    << ", \"batch_pairs\": " << batchGrid[g]
                    << ", \"pairs_per_s\": " << num(rate, 0)
                    << ", \"speedup_vs_monolith\": "
                    << num(monolithRate > 0 ? rate / monolithRate : 0, 3)
                    << ",\n     \"fallback_fraction\": "
                    << num(fallbackFraction, 4)
                    << ", \"candidate_pairs\": " << st.candidatePairs
                    << ", \"light_aligns_attempted\": "
                    << st.lightAlignsAttempted
                    << ", \"light_align_fallback\": "
                    << st.lightAlignFallback
                    << ", \"seed_miss_fallback\": "
                    << st.seedMissFallback
                    << ", \"pa_filter_fallback\": "
                    << st.paFilterFallback << "}"
                    << (bk + 1 < backends.size() ||
                                g + 1 < batchGrid.size()
                            ? ","
                            : "")
                    << "\n";
            }
        }
        out << "  ]\n}\n";
        out.flush();
        if (!out) {
            std::fprintf(stderr, "write to %s failed\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}
