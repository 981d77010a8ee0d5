/**
 * @file
 * Unit and property tests for Light Alignment: every paper Table 1 edit
 * class must be detected with the right score and CIGAR, and within its
 * edit bound the result must equal the DP optimum (paper §8 claim). The
 * allocation-free hypothesis search is pinned against an oracle that
 * builds a CIGAR for every hypothesis passing the score gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "align/affine.hh"
#include "genomics/reference.hh"
#include "genpair/light_align.hh"
#include "oracles/oracles.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using genomics::DnaSequence;
using genomics::Reference;
using genpair::cigarOracle;
using genpair::LightAligner;
using genpair::lightAlignOracle;
using genpair::LightAlignParams;
using genpair::LightOracleResult;
using genpair::LightResult;

/** Random reference with one chromosome. */
Reference
randomRef(u64 len, u64 seed)
{
    util::Pcg32 rng(seed);
    std::string s;
    for (u64 i = 0; i < len; ++i)
        s.push_back(genomics::baseToChar(rng.below(4)));
    Reference ref;
    ref.addChromosome("chr1", DnaSequence(s));
    return ref;
}

struct Fixture
{
    Reference ref = randomRef(5000, 71);
    LightAlignParams params;
    LightAligner aligner{ ref, params };

    DnaSequence
    window(GlobalPos pos, u64 len) const
    {
        return ref.window(pos, len);
    }

    genomics::DnaView
    windowView(GlobalPos pos, u64 len) const
    {
        return ref.windowView(pos, len);
    }
};

TEST(LightAlign, ExactMatch)
{
    Fixture f;
    DnaSequence read = f.window(1000, 150);
    LightResult r = f.aligner.align(read, 1000);
    ASSERT_TRUE(r.aligned);
    EXPECT_EQ(r.score, 300);
    EXPECT_EQ(r.pos, 1000u);
    EXPECT_EQ(r.cigar().toString(), "150M");
}

TEST(LightAlign, OneMismatch)
{
    Fixture f;
    DnaSequence read = f.window(1000, 150);
    read.set(77, (read.at(77) + 1) & 3u);
    LightResult r = f.aligner.align(read, 1000);
    ASSERT_TRUE(r.aligned);
    EXPECT_EQ(r.score, 290);
    EXPECT_EQ(r.pos, 1000u);
}

TEST(LightAlign, TwoScatteredMismatches)
{
    Fixture f;
    DnaSequence read = f.window(1000, 150);
    read.set(20, (read.at(20) + 1) & 3u);
    read.set(130, (read.at(130) + 2) & 3u);
    LightResult r = f.aligner.align(read, 1000);
    ASSERT_TRUE(r.aligned);
    EXPECT_EQ(r.score, 280);
}

TEST(LightAlign, TooManyMismatchesRejected)
{
    Fixture f;
    DnaSequence read = f.window(1000, 150);
    for (u32 i = 10; i < 90; i += 13)
        read.set(i, (read.at(i) + 1) & 3u);
    LightResult r = f.aligner.align(read, 1000);
    EXPECT_FALSE(r.aligned);
}

TEST(LightAlign, SingleDeletion)
{
    Fixture f;
    // Read skips one reference base at read offset 60.
    DnaSequence read = f.window(1000, 60);
    read.append(f.windowView(1061, 90));
    ASSERT_EQ(read.size(), 150u);
    LightResult r = f.aligner.align(read, 1000);
    ASSERT_TRUE(r.aligned);
    EXPECT_EQ(r.score, 286); // 300 - gapCost(1)
    EXPECT_EQ(r.cigar().deletedBases(), 1u);
    EXPECT_EQ(r.pos, 1000u);
}

TEST(LightAlign, FiveConsecutiveDeletions)
{
    Fixture f;
    DnaSequence read = f.window(1000, 80);
    read.append(f.windowView(1085, 70));
    LightResult r = f.aligner.align(read, 1000);
    ASSERT_TRUE(r.aligned);
    EXPECT_EQ(r.score, 278); // paper Table 1
    EXPECT_EQ(r.cigar().deletedBases(), 5u);
}

TEST(LightAlign, SingleInsertion)
{
    Fixture f;
    DnaSequence read = f.window(1000, 75);
    read.push(genomics::BaseG); // may match ref by chance; score >= 284
    read.append(f.windowView(1075, 74));
    ASSERT_EQ(read.size(), 150u);
    LightResult r = f.aligner.align(read, 1000);
    ASSERT_TRUE(r.aligned);
    EXPECT_GE(r.score, 284);
}

TEST(LightAlign, TwoConsecutiveInsertions)
{
    Fixture f;
    DnaSequence ref_part1 = f.window(2000, 50);
    DnaSequence ref_part2 = f.window(2050, 98);
    DnaSequence read = ref_part1;
    // Insert two bases differing from the reference at the junction.
    u8 avoid = f.ref.baseAt(2050);
    read.push((avoid + 1) & 3u);
    read.push((avoid + 2) & 3u);
    read.append(ref_part2);
    ASSERT_EQ(read.size(), 150u);
    LightResult r = f.aligner.align(read, 2000);
    ASSERT_TRUE(r.aligned);
    EXPECT_GE(r.score, 280); // paper Table 1 value for 2 insertions
    EXPECT_EQ(r.pos, 2000u);
}

TEST(LightAlign, CandidateDisplacedByGap)
{
    // Seed from the read's tail: candidate start is displaced by the
    // deletion; the prefix then matches at a non-zero shift.
    Fixture f;
    DnaSequence read = f.window(1000, 60);
    read.append(f.windowView(1063, 90)); // 3-base deletion at offset 60
    // Candidate computed from a tail seed: loc - offset = 1003.
    LightResult r = f.aligner.align(read, 1003);
    ASSERT_TRUE(r.aligned);
    EXPECT_EQ(r.score, 300 - 18); // gapCost(3) = 18
    EXPECT_EQ(r.pos, 1000u);      // true start recovered
}

TEST(LightAlign, MixedEditsFallToDp)
{
    Fixture f;
    // One mismatch AND one deletion: two edit types; light alignment
    // must reject (per paper, this goes to DP).
    DnaSequence read = f.window(1000, 60);
    read.append(f.windowView(1061, 90));
    read.set(20, (read.at(20) + 1) & 3u);
    LightResult r = f.aligner.align(read, 1000);
    EXPECT_FALSE(r.aligned);
}

TEST(LightAlign, WindowAtChromosomeEdgeRejected)
{
    Fixture f;
    DnaSequence read = f.window(0, 150);
    // candidate 0 < maxShift: cannot build the shifted window.
    LightResult r = f.aligner.align(read, 0);
    EXPECT_FALSE(r.aligned);
}

TEST(LightAlign, HypothesisCountBounded)
{
    Fixture f;
    DnaSequence read = f.window(1000, 150);
    LightResult r = f.aligner.align(read, 1000);
    u32 e = f.params.maxShift;
    EXPECT_LE(r.hypothesesTried, (2 * e + 1) * (2 * e + 1) + (2 * e + 1));
}

/**
 * Property test (paper §8: "GenPairX always returns the optimal
 * alignment given an upper limit for the number of edits"): for reads
 * with a single edit type within the bound, the light-alignment score
 * must equal the DP fitting-alignment score.
 */
class LightVsDp : public ::testing::TestWithParam<int>
{
};

TEST_P(LightVsDp, ScoreMatchesDpOptimum)
{
    util::Pcg32 rng(GetParam() * 37 + 5);
    Reference ref = randomRef(4000, GetParam() * 13 + 1);
    LightAlignParams params;
    LightAligner aligner(ref, params);

    GlobalPos pos = 500 + rng.below(2000);
    u32 editClass = rng.below(3);
    DnaSequence read;
    if (editClass == 0) {
        // 1-2 scattered mismatches.
        read = ref.window(pos, 150);
        u32 n = 1 + rng.below(2);
        for (u32 i = 0; i < n; ++i) {
            u32 at = rng.below(150);
            read.set(at, (read.at(at) + 1 + rng.below(3)) & 3u);
        }
    } else if (editClass == 1) {
        // k consecutive deletions, k in 1..5.
        u32 k = 1 + rng.below(5);
        u32 split = 20 + rng.below(110);
        read = ref.window(pos, split);
        read.append(ref.windowView(pos + split + k, 150 - split));
    } else {
        // k consecutive insertions, k in 1..2.
        u32 k = 1 + rng.below(2);
        u32 split = 20 + rng.below(110);
        read = ref.window(pos, split);
        for (u32 i = 0; i < k; ++i)
            read.push(rng.below(4));
        read.append(ref.windowView(pos + split, 150 - split - k));
    }
    ASSERT_EQ(read.size(), 150u);

    LightResult light = aligner.align(read, pos);
    auto window = ref.window(pos - 10, 170);
    auto dp = align::fitAlign(read, window, params.scoring);
    ASSERT_TRUE(dp.valid);
    if (dp.score >= params.minScore) {
        ASSERT_TRUE(light.aligned)
            << "DP found score " << dp.score << " but light align failed";
        EXPECT_EQ(light.score, dp.score);
    }
}

INSTANTIATE_TEST_SUITE_P(SingleEditClasses, LightVsDp,
                         ::testing::Range(0, 40));

void
expectSame(const LightOracleResult &want, const LightResult &got)
{
    ASSERT_EQ(want.aligned, got.aligned);
    EXPECT_EQ(want.hypothesesTried, got.hypothesesTried);
    EXPECT_EQ(want.cigar.toString(), got.cigar().toString());
    if (!want.aligned)
        return;
    EXPECT_EQ(want.score, got.score);
    EXPECT_EQ(want.pos, got.pos);
}

/**
 * Random per-shift statistics, lane-major with a random stride, near
 * the acceptance edge so many hypotheses pass and scores tie often
 * (several shifts with equal mismatch counts, deletions of equal k).
 */
class HypothesisOracle : public ::testing::TestWithParam<int>
{
};

TEST_P(HypothesisOracle, RandomStatsMatchCigarOracle)
{
    util::Pcg32 rng(GetParam() * 131 + 17);
    Reference ref = randomRef(100, 1);
    int tied = 0;
    for (int iter = 0; iter < 200; ++iter) {
        LightAlignParams params;
        params.maxShift = 1 + rng.below(6);
        params.maxMismatches = rng.below(5);
        if (rng.below(2))
            params.minScore = 150 + static_cast<i32>(rng.below(150));
        LightAligner aligner(ref, params);

        const u32 pick = rng.below(8);
        const u32 n = pick == 0 ? rng.below(8) : pick == 1 ? 100 : 150;
        const u32 masks = 2 * params.maxShift + 1;
        const u32 stride = 1 + rng.below(4);
        const u32 lane = rng.below(stride);
        std::vector<u32> popcount(masks * stride, 0);
        std::vector<u32> prefix(masks * stride, 0);
        std::vector<u32> suffix(masks * stride, 0);
        for (u32 m = 0; m < masks; ++m) {
            const std::size_t at = static_cast<std::size_t>(m) * stride +
                                   lane;
            popcount[at] = n - std::min(n, rng.below(6));
            prefix[at] = rng.below(n + 1);
            // Often just enough suffix to close a gap hypothesis.
            const u32 need = n - prefix[at];
            const u32 slack = rng.below(4);
            suffix[at] = rng.below(2) ? std::min(n, need + slack)
                                      : rng.below(n + 1);
        }
        const u32 center = params.maxShift + rng.below(1000);
        SCOPED_TRACE("iter=" + std::to_string(iter) +
                     " n=" + std::to_string(n));
        const LightResult got = aligner.evaluateHypotheses(
            n, center, popcount.data() + lane, prefix.data() + lane,
            suffix.data() + lane, stride);
        const LightOracleResult want = cigarOracle(
            params, n, center, popcount.data() + lane,
            prefix.data() + lane, suffix.data() + lane, stride);
        expectSame(want, got);
        tied += want.ties > 0;
    }
    EXPECT_GT(tied, 0) << "no score ties exercised";
}

INSTANTIATE_TEST_SUITE_P(Random, HypothesisOracle, ::testing::Range(0, 20));

TEST(HypothesisOracle, RealReadsMatchCigarOracle)
{
    util::Pcg32 rng(99);
    // Random bases with an (AC)* repeat over [3000, 3400): reads from
    // the repeat match exactly at every even shift, so scores tie.
    std::string bases = randomRef(6000, 5).chromosome(0).toString();
    for (u32 i = 3000; i < 3400; ++i)
        bases[i] = i % 2 ? 'C' : 'A';
    Reference ref;
    ref.addChromosome("chr1", DnaSequence(bases));
    LightAlignParams params;
    LightAligner aligner(ref, params);
    const u32 e = params.maxShift;
    int tied = 0;
    for (int iter = 0; iter < 300; ++iter) {
        GlobalPos pos = 100 + rng.below(5000);
        const u32 split = 1 + rng.below(148);
        const u32 k = 1 + rng.below(e);
        DnaSequence read;
        switch (rng.below(4)) {
        case 0: // scattered mismatches
            read = ref.window(pos, 150);
            for (u32 m = rng.below(5); m > 0; --m) {
                const u32 at = rng.below(150);
                read.set(at, (read.at(at) + 1 + rng.below(3)) & 3u);
            }
            break;
        case 1: // a deletion run
            read = ref.window(pos, split);
            read.append(ref.windowView(pos + split + k, 150 - split));
            break;
        case 2: // an insertion run
            read = ref.window(pos, split);
            for (u32 i = 0; i < k && read.size() < 150; ++i)
                read.push(rng.below(4));
            read.append(ref.windowView(pos + split, 150 - read.size()));
            break;
        default: // a read from the repeat
            pos = 3050 + rng.below(150);
            read = ref.window(pos, 150);
            break;
        }
        ASSERT_EQ(read.size(), 150u);
        // Candidates off by a few bases, like a seed behind the gap.
        const GlobalPos cand = pos + rng.below(2 * e + 1) - e;
        SCOPED_TRACE("iter=" + std::to_string(iter));

        const LightOracleResult want =
            lightAlignOracle(ref, params, read, cand);
        expectSame(want, aligner.align(read, cand));
        tied += want.ties > 0;
    }
    EXPECT_GT(tied, 0) << "no score ties exercised";
}

} // namespace
