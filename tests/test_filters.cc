/**
 * @file
 * Unit, property and differential tests for the pre-alignment filter
 * library: the edit-distance oracle, mask operations, the four filters
 * (BaseCount, SHD, GateKeeper, SneakySnake) and the SneakySnake x Light
 * Alignment combination of paper §8.
 */

#include <gtest/gtest.h>

#include <memory>

#include "filters/base_count.hh"
#include "filters/edit_distance.hh"
#include "filters/filtered_light_align.hh"
#include "filters/gatekeeper.hh"
#include "filters/grim_filter.hh"
#include "filters/mask_ops.hh"
#include "filters/shd_filter.hh"
#include "filters/sneakysnake.hh"
#include "genpair/pipeline.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using filters::BaseCountFilter;
using filters::FilterDecision;
using filters::GateKeeperFilter;
using filters::PreAlignmentFilter;
using filters::ShdFilter;
using filters::SneakySnakeFilter;
using genomics::DnaSequence;

DnaSequence
randomSeq(util::Pcg32 &rng, u32 len)
{
    DnaSequence s;
    for (u32 i = 0; i < len; ++i)
        s.push(static_cast<u8>(rng.below(4)));
    return s;
}

/** Apply n scattered substitutions at distinct positions. */
DnaSequence
withSubstitutions(const DnaSequence &seq, util::Pcg32 &rng, u32 n)
{
    DnaSequence out = seq;
    std::vector<bool> used(seq.size(), false);
    for (u32 k = 0; k < n; ++k) {
        u32 pos;
        do {
            pos = rng.below(static_cast<u32>(seq.size()));
        } while (used[pos]);
        used[pos] = true;
        out.set(pos, (out.at(pos) + 1 + rng.below(3)) & 3u);
    }
    return out;
}

/** Delete a run of n bases starting at pos. */
DnaSequence
withDeletionRun(const DnaSequence &seq, u32 pos, u32 n)
{
    DnaSequence out;
    for (std::size_t i = 0; i < seq.size(); ++i)
        if (i < pos || i >= pos + n)
            out.push(seq.at(i));
    return out;
}

/** Insert a run of n random bases at pos. */
DnaSequence
withInsertionRun(const DnaSequence &seq, util::Pcg32 &rng, u32 pos, u32 n)
{
    DnaSequence out;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        if (i == pos)
            for (u32 k = 0; k < n; ++k)
                out.push(static_cast<u8>(rng.below(4)));
        out.push(seq.at(i));
    }
    return out;
}

// ---------------------------------------------------------------------
// Edit-distance oracle
// ---------------------------------------------------------------------

TEST(EditDistance, IdenticalIsZero)
{
    DnaSequence a("ACGTACGTACGT");
    EXPECT_EQ(filters::editDistance(a, a), 0u);
}

TEST(EditDistance, KnownSmallCases)
{
    auto dist = [](std::string_view x, std::string_view y) {
        DnaSequence a{ x }, b{ y };
        return filters::editDistance(a, b);
    };
    EXPECT_EQ(dist("ACGT", "AGGT"), 1u);  // one substitution
    EXPECT_EQ(dist("ACGT", "ACGGT"), 1u); // one insertion
    EXPECT_EQ(dist("ACGT", "AGT"), 1u);   // one deletion
    EXPECT_EQ(dist("AAAA", "TTTT"), 4u);
    EXPECT_EQ(dist("", "ACGT"), 4u);
}

TEST(EditDistance, SymmetricOnRandomPairs)
{
    util::Pcg32 rng(11);
    for (int k = 0; k < 20; ++k) {
        DnaSequence a = randomSeq(rng, 40 + rng.below(40));
        DnaSequence b = randomSeq(rng, 40 + rng.below(40));
        EXPECT_EQ(filters::editDistance(a, b), filters::editDistance(b, a));
    }
}

TEST(EditDistance, BoundedAgreesWithFullWithinCutoff)
{
    util::Pcg32 rng(12);
    for (int k = 0; k < 40; ++k) {
        DnaSequence a = randomSeq(rng, 80);
        u32 edits = rng.below(6);
        DnaSequence b = withSubstitutions(a, rng, edits);
        u32 full = filters::editDistance(a, b);
        for (u32 cutoff : { 2u, 5u, 8u }) {
            u32 bounded = filters::editDistanceBounded(a, b, cutoff);
            if (full <= cutoff)
                EXPECT_EQ(bounded, full);
            else
                EXPECT_EQ(bounded, cutoff + 1);
        }
    }
}

TEST(EditDistance, BoundedLengthGapShortCircuit)
{
    DnaSequence a("ACGTACGTACGTACGT");
    DnaSequence b("ACG");
    EXPECT_EQ(filters::editDistanceBounded(a, b, 3), 4u);
}

TEST(EditDistance, BoundedHandlesIndelRuns)
{
    util::Pcg32 rng(13);
    DnaSequence a = randomSeq(rng, 100);
    DnaSequence del = withDeletionRun(a, 30, 4);
    EXPECT_EQ(filters::editDistanceBounded(a, del, 6), 4u);
    DnaSequence ins = withInsertionRun(a, rng, 50, 3);
    EXPECT_EQ(filters::editDistanceBounded(a, ins, 6), 3u);
}

TEST(CandidateEditDistance, ExactPlacementIsZero)
{
    util::Pcg32 rng(14);
    DnaSequence window = randomSeq(rng, 200);
    DnaSequence read = window.sub(25, 150);
    EXPECT_EQ(filters::candidateEditDistance(read, window, 25, 5), 0u);
}

TEST(CandidateEditDistance, OffCenterWithinSlackIsZero)
{
    util::Pcg32 rng(15);
    DnaSequence window = randomSeq(rng, 220);
    DnaSequence read = window.sub(28, 150);
    // Candidate says 25, truth is 28; slack 5 covers it.
    EXPECT_EQ(filters::candidateEditDistance(read, window, 25, 5), 0u);
}

TEST(CandidateEditDistance, CountsSubstitutions)
{
    util::Pcg32 rng(16);
    DnaSequence window = randomSeq(rng, 200);
    DnaSequence read = withSubstitutions(window.sub(20, 150), rng, 3);
    EXPECT_EQ(filters::candidateEditDistance(read, window, 20, 5), 3u);
}

// ---------------------------------------------------------------------
// Mask operations
// ---------------------------------------------------------------------

TEST(MaskOps, OnesRunAtBasics)
{
    align::HammingMask m;
    m.bits = 16;
    m.words = { 0b0011101100001111 };
    EXPECT_EQ(filters::onesRunAt(m, 0), 4u);
    EXPECT_EQ(filters::onesRunAt(m, 4), 0u);
    EXPECT_EQ(filters::onesRunAt(m, 8), 2u);
    EXPECT_EQ(filters::onesRunAt(m, 11), 3u);
    EXPECT_EQ(filters::onesRunAt(m, 15), 0u);
    EXPECT_EQ(filters::onesRunAt(m, 16), 0u); // out of range
}

TEST(MaskOps, OnesRunCrossesWordBoundary)
{
    align::HammingMask m;
    m.bits = 100;
    m.words = { ~u64{0}, 0x7 }; // 64 ones then 3 ones
    EXPECT_EQ(filters::onesRunAt(m, 0), 67u);
    EXPECT_EQ(filters::onesRunAt(m, 60), 7u);
}

TEST(MaskOps, AmendShortRunsRemovesOnlyShortRuns)
{
    align::HammingMask m;
    m.bits = 16;
    //          fedcba9876543210
    m.words = { 0b0110111110001011 };
    auto out = filters::amendShortRuns(m, 3);
    // Runs: [0..1] len2 (killed), [3] len1 (killed), [7..11] len5
    // (kept), [13..14] len2 (killed).
    EXPECT_EQ(out.words[0], 0b0000111110000000u);
}

TEST(MaskOps, AmendKeepsLongRunAtEnd)
{
    align::HammingMask m;
    m.bits = 150;
    m.words = { ~u64{0}, ~u64{0}, (u64{1} << 22) - 1 };
    auto out = filters::amendShortRuns(m, 3);
    EXPECT_EQ(out.popcount(), 150u);
}

TEST(MaskOps, ZeroRunCount)
{
    align::HammingMask m;
    m.bits = 12;
    m.words = { 0b110011101101 };
    // Zero runs: bit1, bit4, bits 8-9 -> 3 runs.
    EXPECT_EQ(filters::zeroRunCount(m), 3u);
    EXPECT_EQ(filters::zeroCount(m), 4u);
}

// ---------------------------------------------------------------------
// Filter behaviour, parameterized across all four filters
// ---------------------------------------------------------------------

enum class FilterKind { BaseCount, Shd, GateKeeper, SneakySnake };

std::unique_ptr<PreAlignmentFilter>
makeFilter(FilterKind kind)
{
    switch (kind) {
    case FilterKind::BaseCount:
        return std::make_unique<BaseCountFilter>();
    case FilterKind::Shd:
        return std::make_unique<ShdFilter>();
    case FilterKind::GateKeeper:
        return std::make_unique<GateKeeperFilter>();
    case FilterKind::SneakySnake:
        return std::make_unique<SneakySnakeFilter>();
    }
    return nullptr;
}

class AllFilters : public ::testing::TestWithParam<FilterKind>
{
  protected:
    std::unique_ptr<PreAlignmentFilter> filter_ = makeFilter(GetParam());
};

TEST_P(AllFilters, ExactMatchAccepted)
{
    util::Pcg32 rng(21);
    for (int k = 0; k < 10; ++k) {
        DnaSequence window = randomSeq(rng, 170);
        DnaSequence read = window.sub(5, 150);
        auto d = filter_->evaluate(read, window, 5, 5);
        EXPECT_TRUE(d.accept) << filter_->name();
        EXPECT_EQ(d.estimatedEdits, 0u) << filter_->name();
    }
}

TEST_P(AllFilters, SubstitutionsWithinBudgetAccepted)
{
    util::Pcg32 rng(22);
    for (u32 edits = 1; edits <= 4; ++edits) {
        for (int k = 0; k < 10; ++k) {
            DnaSequence window = randomSeq(rng, 170);
            DnaSequence read =
                withSubstitutions(window.sub(5, 150), rng, edits);
            auto d = filter_->evaluate(read, window, 5, 5);
            EXPECT_TRUE(d.accept)
                << filter_->name() << " rejected " << edits << " subs";
        }
    }
}

TEST_P(AllFilters, DeletionRunWithinBudgetAccepted)
{
    util::Pcg32 rng(23);
    for (u32 run = 1; run <= 4; ++run) {
        DnaSequence window = randomSeq(rng, 200);
        // Read = window[10..170) with a deletion run -> still 150 long.
        DnaSequence read =
            withDeletionRun(window.sub(10, 150 + run), 60, run);
        auto d = filter_->evaluate(read, window, 10, 5);
        EXPECT_TRUE(d.accept)
            << filter_->name() << " rejected " << run << "-del run";
    }
}

TEST_P(AllFilters, InsertionRunWithinBudgetAccepted)
{
    util::Pcg32 rng(24);
    for (u32 run = 1; run <= 4; ++run) {
        DnaSequence window = randomSeq(rng, 200);
        DnaSequence read =
            withInsertionRun(window.sub(10, 150 - run), rng, 70, run);
        ASSERT_EQ(read.size(), 150u);
        auto d = filter_->evaluate(read, window, 10, 5);
        EXPECT_TRUE(d.accept)
            << filter_->name() << " rejected " << run << "-ins run";
    }
}

TEST_P(AllFilters, RandomWindowsOverwhelminglyRejected)
{
    // BaseCount is order-blind: a random window supplies roughly the
    // right base composition, so it cannot reject unrelated-but-
    // composition-matched sequences. That weakness is exactly what the
    // ablation bench quantifies; here it gets the skew test below.
    if (GetParam() == FilterKind::BaseCount)
        GTEST_SKIP() << "order-blind filter; see CompositionSkewRejected";
    util::Pcg32 rng(25);
    int rejected = 0;
    const int trials = 50;
    for (int k = 0; k < trials; ++k) {
        DnaSequence window = randomSeq(rng, 170);
        DnaSequence read = randomSeq(rng, 150); // unrelated
        auto d = filter_->evaluate(read, window, 5, 5);
        rejected += d.accept ? 0 : 1;
    }
    // An unrelated 150 bp sequence has expected ~112 mismatches; the
    // mask-based filters must reject essentially all of these.
    EXPECT_GE(rejected, trials - 1) << filter_->name();
}

TEST_P(AllFilters, CompositionSkewRejected)
{
    // All filters, including BaseCount, must reject a read whose base
    // composition the window cannot supply.
    util::Pcg32 rng(27);
    DnaSequence window = randomSeq(rng, 170);
    DnaSequence read;
    for (int i = 0; i < 150; ++i)
        read.push(genomics::BaseA);
    auto d = filter_->evaluate(read, window, 5, 5);
    EXPECT_FALSE(d.accept) << filter_->name();
}

TEST_P(AllFilters, AcceptanceMonotonicInBudget)
{
    util::Pcg32 rng(26);
    for (int k = 0; k < 20; ++k) {
        DnaSequence window = randomSeq(rng, 180);
        DnaSequence read =
            withSubstitutions(window.sub(8, 150), rng, rng.below(6));
        bool prev = false;
        for (u32 budget = 0; budget <= 8; ++budget) {
            bool acc = filter_->evaluate(read, window, 8, budget).accept;
            if (prev) {
                EXPECT_TRUE(acc)
                    << filter_->name()
                    << ": accepted at smaller budget, rejected at "
                    << budget;
            }
            prev = acc;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Filters, AllFilters,
    ::testing::Values(FilterKind::BaseCount, FilterKind::Shd,
                      FilterKind::GateKeeper, FilterKind::SneakySnake),
    [](const auto &test_info) {
        switch (test_info.param) {
        case FilterKind::BaseCount: return std::string("BaseCount");
        case FilterKind::Shd: return std::string("SHD");
        case FilterKind::GateKeeper: return std::string("GateKeeper");
        case FilterKind::SneakySnake: return std::string("SneakySnake");
        }
        return std::string("unknown");
    });

// ---------------------------------------------------------------------
// Lower-bound properties (differential against the oracle)
// ---------------------------------------------------------------------

class LowerBoundProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(LowerBoundProperty, SneakySnakeNeverOverestimates)
{
    util::Pcg32 rng(100 + GetParam());
    for (int k = 0; k < 25; ++k) {
        DnaSequence window = randomSeq(rng, 180);
        DnaSequence read = window.sub(8, 150);
        // Mixed random edits.
        u32 nsub = rng.below(4);
        read = withSubstitutions(read, rng, nsub);
        if (rng.below(2)) {
            u32 run = 1 + rng.below(3);
            read = withDeletionRun(read, 20 + rng.below(100), run);
        }
        const u32 budget = 8;
        auto d = SneakySnakeFilter{}.evaluate(read, window, 8, budget);
        u32 truth =
            filters::candidateEditDistance(read, window, 8, budget);
        if (d.estimatedEdits <= budget) {
            EXPECT_LE(d.estimatedEdits, truth)
                << "snake overestimated: read len " << read.size();
        }
    }
}

TEST_P(LowerBoundProperty, BaseCountNeverOverestimates)
{
    util::Pcg32 rng(200 + GetParam());
    for (int k = 0; k < 25; ++k) {
        DnaSequence window = randomSeq(rng, 180);
        DnaSequence read =
            withSubstitutions(window.sub(8, 150), rng, rng.below(6));
        const u32 budget = 8;
        auto d = BaseCountFilter{}.evaluate(read, window, 8, budget);
        u32 truth =
            filters::candidateEditDistance(read, window, 8, budget);
        EXPECT_LE(d.estimatedEdits, truth);
    }
}

TEST_P(LowerBoundProperty, NoFalseRejectsWithinBudget)
{
    // Any candidate whose true distance fits the budget must pass the
    // lower-bounding filters (heuristic SHD/GateKeeper are exercised
    // separately; their guarantees are statistical).
    util::Pcg32 rng(300 + GetParam());
    SneakySnakeFilter snake;
    BaseCountFilter counts;
    for (int k = 0; k < 25; ++k) {
        DnaSequence window = randomSeq(rng, 180);
        DnaSequence read =
            withSubstitutions(window.sub(8, 150), rng, rng.below(9));
        const u32 budget = 8;
        u32 truth =
            filters::candidateEditDistance(read, window, 8, budget);
        if (truth <= budget) {
            EXPECT_TRUE(snake.evaluate(read, window, 8, budget).accept);
            EXPECT_TRUE(counts.evaluate(read, window, 8, budget).accept);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerBoundProperty,
                         ::testing::Range(u64{0}, u64{8}));

// ---------------------------------------------------------------------
// FilteredLightAligner (the §8 combination)
// ---------------------------------------------------------------------

class FilteredLightTest : public ::testing::Test
{
  protected:
    FilteredLightTest()
    {
        simdata::GenomeParams gp;
        gp.length = 200000;
        gp.chromosomes = 1;
        gp.seed = 77;
        ref_ = simdata::generateGenome(gp);
    }

    genomics::Reference ref_;
    genpair::LightAlignParams params_;
    SneakySnakeFilter gate_;
};

TEST_F(FilteredLightTest, ExactReadPassesGateAndAligns)
{
    filters::FilteredLightAligner combo(ref_, params_, gate_);
    DnaSequence read = ref_.window(5000, 150);
    auto r = combo.align(read, 5000);
    EXPECT_TRUE(r.aligned);
    EXPECT_EQ(r.pos, 5000u);
    EXPECT_EQ(combo.stats().gateRejected, 0u);
    EXPECT_EQ(combo.stats().lightAligned, 1u);
}

TEST_F(FilteredLightTest, GarbageCandidateRejectedWithZeroHypotheses)
{
    filters::FilteredLightAligner combo(ref_, params_, gate_);
    util::Pcg32 rng(5);
    DnaSequence read = randomSeq(rng, 150);
    auto r = combo.align(read, 9000);
    EXPECT_FALSE(r.aligned);
    EXPECT_EQ(combo.stats().gateRejected, 1u);
    EXPECT_EQ(combo.stats().hypothesesTried, 0u);
}

TEST_F(FilteredLightTest, NeverRejectsWhatLightAlignmentWouldAlign)
{
    // The decisive soundness property of the combination: for candidates
    // the plain Light Aligner aligns, the gated one must align with the
    // same score and position.
    genpair::LightAligner plain(ref_, params_);
    filters::FilteredLightAligner combo(ref_, params_, gate_);
    util::Pcg32 rng(6);
    int aligned = 0;
    for (int k = 0; k < 400; ++k) {
        GlobalPos pos = 1000 + rng.below(150000);
        DnaSequence read = ref_.window(pos, 150);
        // Random light edits, sometimes none.
        u32 mode = rng.below(4);
        if (mode == 1)
            read = withSubstitutions(read, rng, 1 + rng.below(3));
        else if (mode == 2)
            read = withDeletionRun(ref_.window(pos, 152), 40, 2);
        else if (mode == 3)
            read = withInsertionRun(ref_.window(pos, 148), rng, 60, 2);
        auto p = plain.align(read, pos);
        auto c = combo.align(read, pos);
        if (p.aligned) {
            ++aligned;
            ASSERT_TRUE(c.aligned) << "gate caused a false reject";
            EXPECT_EQ(c.score, p.score);
            EXPECT_EQ(c.pos, p.pos);
        }
    }
    EXPECT_GT(aligned, 300); // the scenario must actually exercise the path
}

TEST_F(FilteredLightTest, StatsAccumulateAndReset)
{
    filters::FilteredLightAligner combo(ref_, params_, gate_);
    DnaSequence read = ref_.window(3000, 150);
    combo.align(read, 3000);
    combo.align(read, 3000);
    EXPECT_EQ(combo.stats().candidates, 2u);
    EXPECT_EQ(combo.stats().lightAttempted, 2u);
    combo.resetStats();
    EXPECT_EQ(combo.stats().candidates, 0u);
}

TEST_F(FilteredLightTest, CandidatesNearGenomeStartSkipTheFilter)
{
    // The filter needs `budget` window bases left of the candidate.
    // Nearer the genome start both gate forms leave the candidate to
    // Light Alignment's own window check instead of aborting.
    genpair::LightAligner plain(ref_, params_);
    filters::FilteredLightAligner combo(ref_, params_, gate_);
    filters::FilterGate gate(ref_, gate_, combo.gateBudget());
    for (GlobalPos pos = 0; pos < combo.gateBudget(); ++pos) {
        const DnaSequence read = ref_.window(pos, 150);
        EXPECT_TRUE(gate.admit(read, pos)) << pos;
        const auto p = plain.align(read, pos);
        const auto c = combo.align(read, pos);
        EXPECT_EQ(c.aligned, p.aligned) << pos;
        EXPECT_EQ(c.hypothesesTried, p.hypothesesTried) << pos;
    }
    EXPECT_EQ(gate.evaluations(), 0u);
    EXPECT_EQ(combo.stats().gateRejected, 0u);
    EXPECT_EQ(combo.stats().lightAttempted, combo.gateBudget());
}

TEST_F(FilteredLightTest, GateBudgetCoversLightAlignBound)
{
    filters::FilteredLightAligner combo(ref_, params_, gate_);
    EXPECT_EQ(combo.gateBudget(),
              std::max(params_.maxShift, params_.maxMismatches));
}


// ---------------------------------------------------------------------
// GRIM-Filter (binned q-gram existence)
// ---------------------------------------------------------------------

class GrimTest : public ::testing::Test
{
  protected:
    GrimTest()
    {
        simdata::GenomeParams gp;
        gp.length = 250000;
        gp.chromosomes = 2;
        gp.seed = 31;
        ref_ = simdata::generateGenome(gp);
        grim_ = std::make_unique<filters::GrimFilter>(
            ref_, filters::GrimParams{});
    }

    genomics::Reference ref_;
    std::unique_ptr<filters::GrimFilter> grim_;
};

TEST_F(GrimTest, ExactReadFullyPresent)
{
    util::Pcg32 rng(1);
    for (int k = 0; k < 10; ++k) {
        GlobalPos pos = 500 + rng.below(100000);
        DnaSequence read = ref_.window(pos, 150);
        auto d = grim_->evaluate(read, pos, 5);
        EXPECT_TRUE(d.accept);
        EXPECT_EQ(d.estimatedEdits, 0u);
        EXPECT_EQ(grim_->presentTokens(read, pos), 146u); // 150 - 5 + 1
    }
}

TEST_F(GrimTest, SubstitutionsWithinBudgetNeverRejected)
{
    // The GRIM no-false-negative argument: each edit kills at most q
    // tokens, so a read with e <= maxEdits edits always clears the bar.
    util::Pcg32 rng(2);
    for (u32 edits = 1; edits <= 5; ++edits) {
        for (int k = 0; k < 10; ++k) {
            GlobalPos pos = 500 + rng.below(100000);
            DnaSequence read =
                withSubstitutions(ref_.window(pos, 150), rng, edits);
            EXPECT_TRUE(grim_->evaluate(read, pos, 5).accept)
                << edits << " substitutions rejected";
        }
    }
}

TEST_F(GrimTest, IndelRunsWithinBudgetNeverRejected)
{
    util::Pcg32 rng(3);
    for (u32 run = 1; run <= 5; ++run) {
        GlobalPos pos = 500 + rng.below(100000);
        DnaSequence del =
            withDeletionRun(ref_.window(pos, 150 + run), 60, run);
        EXPECT_TRUE(grim_->evaluate(del, pos, 5).accept);
        DnaSequence ins =
            withInsertionRun(ref_.window(pos, 150 - run), rng, 80, run);
        EXPECT_TRUE(grim_->evaluate(ins, pos, 5).accept);
    }
}

TEST_F(GrimTest, BinBoundaryPlacementAccepted)
{
    // A read starting exactly on a bin boundary must find its tokens in
    // the next bins (the straddle-compensation path).
    const u64 binSize = u64{1} << filters::GrimParams{}.binBits;
    GlobalPos pos = 40 * binSize;
    DnaSequence read = ref_.window(pos, 150);
    EXPECT_TRUE(grim_->evaluate(read, pos, 5).accept);
}

TEST_F(GrimTest, DisplacedCandidatesOverwhelminglyRejected)
{
    util::Pcg32 rng(4);
    int rejected = 0;
    const int trials = 40;
    for (int k = 0; k < trials; ++k) {
        GlobalPos pos = 500 + rng.below(100000);
        DnaSequence read = ref_.window(pos, 150);
        GlobalPos decoy = pos + 30000 + rng.below(80000);
        rejected += grim_->evaluate(read, decoy, 5).accept ? 0 : 1;
    }
    EXPECT_GE(rejected, trials * 9 / 10);
}

TEST_F(GrimTest, BitvectorFootprintMatchesGeometry)
{
    // bins x 4^q bits; q=5, 256 bp bins over ~250 kbp -> ~977 bins.
    const u64 binSize = u64{1} << filters::GrimParams{}.binBits;
    const u64 bins = (ref_.totalLength() + binSize - 1) / binSize;
    EXPECT_EQ(grim_->bitvectorBytes(), bins * 1024 / 8);
}

TEST_F(GrimTest, ShortReadTriviallyAccepted)
{
    DnaSequence tiny("ACG"); // shorter than q
    EXPECT_TRUE(grim_->evaluate(tiny, 1000, 0).accept);
}


// ---------------------------------------------------------------------
// FilterGate inside the full pipeline (the SS8 combination end to end)
// ---------------------------------------------------------------------

class GatedPipelineTest : public ::testing::Test
{
  protected:
    GatedPipelineTest()
    {
        simdata::GenomeParams gp;
        gp.length = 400000;
        gp.chromosomes = 2;
        gp.seed = 55;
        ref_ = simdata::generateGenome(gp);
        diploid_ = std::make_unique<simdata::DiploidGenome>(
            ref_, simdata::VariantParams{});
        map_ = std::make_unique<genpair::SeedMap>(
            ref_, genpair::SeedMapParams{});
        mm2_ = std::make_unique<baseline::Mm2Lite>(
            ref_, baseline::Mm2LiteParams{});
        simdata::ReadSimParams rp;
        simdata::ReadSimulator sim(*diploid_, rp);
        pairs_ = sim.simulate(800);
    }

    genomics::Reference ref_;
    std::unique_ptr<simdata::DiploidGenome> diploid_;
    std::unique_ptr<genpair::SeedMap> map_;
    std::unique_ptr<baseline::Mm2Lite> mm2_;
    std::vector<genomics::ReadPair> pairs_;
};

TEST_F(GatedPipelineTest, SneakyGatePreservesEveryMapping)
{
    genpair::GenPairParams params;
    genpair::GenPairPipeline plain(ref_, *map_, params, mm2_.get());
    std::vector<genomics::PairMapping> plainOut;
    for (const auto &p : pairs_)
        plainOut.push_back(plain.mapPair(p));

    SneakySnakeFilter snake;
    filters::FilterGate gate(
        ref_, snake,
        std::max(params.light.maxShift, params.light.maxMismatches));
    genpair::GenPairPipeline gated(ref_, *map_, params, mm2_.get());
    gated.setLightAlignGate(&gate);
    std::vector<genomics::PairMapping> gatedOut;
    for (const auto &p : pairs_)
        gatedOut.push_back(gated.mapPair(p));

    // Soundness end to end: identical routing and placements.
    ASSERT_EQ(plainOut.size(), gatedOut.size());
    for (std::size_t i = 0; i < plainOut.size(); ++i) {
        EXPECT_EQ(plainOut[i].path, gatedOut[i].path) << "pair " << i;
        EXPECT_EQ(plainOut[i].first.pos, gatedOut[i].first.pos);
        EXPECT_EQ(plainOut[i].second.pos, gatedOut[i].second.pos);
        EXPECT_EQ(plainOut[i].first.score, gatedOut[i].first.score);
    }
    EXPECT_EQ(plain.stats().lightAligned, gated.stats().lightAligned);

    // And the gate did remove work.
    EXPECT_GT(gate.evaluations(), 0u);
    EXPECT_EQ(gated.stats().gateRejected, gate.rejections());
    EXPECT_LE(gated.stats().lightHypotheses,
              plain.stats().lightHypotheses);
}

TEST_F(GatedPipelineTest, RejectingGateForcesDpEverywhere)
{
    // A degenerate always-reject gate must not break the pipeline —
    // every pair routes to a DP path (or unmapped), none light-align.
    struct NoGate final : genpair::LightAlignGate
    {
        bool
        admit(const genomics::DnaSequence &, GlobalPos) override
        {
            return false;
        }
    } never;
    genpair::GenPairPipeline gated(ref_, *map_, genpair::GenPairParams{},
                                   mm2_.get());
    gated.setLightAlignGate(&never);
    u64 mapped = 0;
    for (std::size_t i = 0; i < 100; ++i) {
        auto pm = gated.mapPair(pairs_[i]);
        mapped += pm.bothMapped() ? 1 : 0;
        EXPECT_NE(pm.path, genomics::MappingPath::LightAligned);
    }
    EXPECT_EQ(gated.stats().lightAligned, 0u);
    EXPECT_GT(gated.stats().gateRejected, 0u);
    EXPECT_GT(mapped, 90u); // DP fallback still maps the reads
}

} // namespace
