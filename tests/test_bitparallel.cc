/**
 * @file
 * Randomized property tests pitting every bit-parallel kernel against
 * its retained scalar oracle: Myers edit distance (exact, bounded,
 * semi-global), the word-level DnaView operations (revComp, equality,
 * Hamming distance, bit planes, materialization), zero-copy reference
 * windows vs copied windows, and the packed-word minimizer stream vs
 * the original per-base deque implementation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/minimizer_index.hh"
#include "filters/edit_distance.hh"
#include "genomics/reference.hh"
#include "genomics/sequence.hh"
#include "oracles/oracles.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using genomics::DnaSequence;
using genomics::DnaView;

DnaSequence
randomSeq(util::Pcg32 &rng, std::size_t len)
{
    DnaSequence s;
    for (std::size_t i = 0; i < len; ++i)
        s.push(static_cast<u8>(rng.below(4)));
    return s;
}

/** Mutate @p s with a few random substitutions/indels. */
DnaSequence
mutate(util::Pcg32 &rng, const DnaSequence &s, u32 edits)
{
    std::string ascii = s.toString();
    for (u32 e = 0; e < edits && !ascii.empty(); ++e) {
        u32 kind = rng.below(3);
        std::size_t pos = rng.below(static_cast<u32>(ascii.size()));
        if (kind == 0)
            ascii[pos] = genomics::baseToChar(rng.below(4));
        else if (kind == 1)
            ascii.erase(pos, 1);
        else
            ascii.insert(pos, 1, genomics::baseToChar(rng.below(4)));
    }
    return DnaSequence(ascii);
}

/** Lengths that straddle the 32-base packed and 64-base plane words. */
const std::size_t kEdgeLens[] = { 0,  1,  2,  31, 32, 33,  63,  64,
                                  65, 95, 96, 97, 127, 128, 129, 200 };

TEST(BitParallelEdit, MatchesScalarOnEdgeLengths)
{
    util::Pcg32 rng(101);
    for (std::size_t la : kEdgeLens) {
        for (std::size_t lb : kEdgeLens) {
            DnaSequence a = randomSeq(rng, la);
            DnaSequence b = randomSeq(rng, lb);
            EXPECT_EQ(filters::editDistance(a, b),
                      filters::editDistanceScalar(a, b))
                << "la=" << la << " lb=" << lb;
        }
    }
}

TEST(BitParallelEdit, MatchesScalarOnRelatedPairs)
{
    util::Pcg32 rng(202);
    for (int it = 0; it < 300; ++it) {
        std::size_t len = 1 + rng.below(280);
        DnaSequence a = randomSeq(rng, len);
        DnaSequence b = mutate(rng, a, rng.below(8));
        EXPECT_EQ(filters::editDistance(a, b),
                  filters::editDistanceScalar(a, b))
            << "iteration " << it;
    }
}

TEST(BitParallelEdit, BoundedMatchesScalar)
{
    util::Pcg32 rng(303);
    for (int it = 0; it < 400; ++it) {
        std::size_t len = 1 + rng.below(200);
        DnaSequence a = randomSeq(rng, len);
        DnaSequence b = rng.below(2) ? mutate(rng, a, rng.below(10))
                                     : randomSeq(rng, 1 + rng.below(200));
        u32 k = rng.below(13);
        EXPECT_EQ(filters::editDistanceBounded(a, b, k),
                  filters::editDistanceBoundedScalar(a, b, k))
            << "iteration " << it << " k=" << k;
    }
}

TEST(BitParallelEdit, CandidateMatchesScalar)
{
    util::Pcg32 rng(404);
    for (int it = 0; it < 300; ++it) {
        std::size_t rlen = 1 + rng.below(180);
        std::size_t wlen = 1 + rng.below(260);
        DnaSequence window = randomSeq(rng, wlen);
        DnaSequence read =
            rng.below(2) && wlen > rlen
                ? mutate(rng,
                         window.sub(rng.below(static_cast<u32>(
                                        wlen - rlen + 1)),
                                    rlen),
                         rng.below(5))
                : randomSeq(rng, rlen);
        u32 center = rng.below(static_cast<u32>(wlen) + 4);
        u32 slack = rng.below(9);
        EXPECT_EQ(
            filters::candidateEditDistance(read, window, center, slack),
            filters::candidateEditDistanceScalar(read, window, center,
                                                 slack))
            << "iteration " << it;
    }
}

TEST(BitParallelEdit, EmptySequences)
{
    DnaSequence e;
    DnaSequence a("ACGT");
    EXPECT_EQ(filters::editDistance(e, e), 0u);
    EXPECT_EQ(filters::editDistance(e, a), 4u);
    EXPECT_EQ(filters::editDistance(a, e), 4u);
    EXPECT_EQ(filters::editDistanceBounded(e, a, 2), 3u);
    EXPECT_EQ(filters::editDistanceBounded(e, a, 4), 4u);
}

// ---------------------------------------------------------------------------
// DnaView word-level operations vs per-base reference implementations.
// ---------------------------------------------------------------------------

TEST(DnaViewOps, RandomViewsMatchPerBase)
{
    util::Pcg32 rng(505);
    for (int it = 0; it < 200; ++it) {
        std::size_t plen = 1 + rng.below(400);
        DnaSequence parent = randomSeq(rng, plen);
        std::size_t start = rng.below(static_cast<u32>(plen));
        std::size_t len = rng.below(static_cast<u32>(plen - start) + 1);
        DnaView v = parent.view(start, len);

        ASSERT_EQ(v.size(), len);
        // at() agrees with the parent.
        for (std::size_t i = 0; i < len; ++i)
            ASSERT_EQ(v.at(i), parent.at(start + i));
        // word() decodes to the same bases.
        for (std::size_t w = 0; w < v.numWords(); ++w) {
            u64 word = v.word(w);
            std::size_t rem = std::min<std::size_t>(32, len - 32 * w);
            for (std::size_t i = 0; i < rem; ++i)
                ASSERT_EQ((word >> (2 * i)) & 0x3u,
                          parent.at(start + 32 * w + i));
            if (rem < 32) {
                ASSERT_EQ(word >> (2 * rem), 0u) << "tail not zero-padded";
            }
        }
        // materialize == scalar sub.
        DnaSequence copy = v.materialize();
        ASSERT_EQ(copy.size(), len);
        for (std::size_t i = 0; i < len; ++i)
            ASSERT_EQ(copy.at(i), parent.at(start + i));
        EXPECT_TRUE(v == copy.view());
        // packed bytes match a push-built copy bit for bit.
        DnaSequence pushed;
        for (std::size_t i = 0; i < len; ++i)
            pushed.push(parent.at(start + i));
        EXPECT_EQ(copy.packed(), pushed.packed());
    }
}

TEST(DnaViewOps, RevCompMatchesPerBase)
{
    util::Pcg32 rng(606);
    for (int it = 0; it < 200; ++it) {
        std::size_t plen = 1 + rng.below(300);
        DnaSequence parent = randomSeq(rng, plen);
        std::size_t start = rng.below(static_cast<u32>(plen));
        std::size_t len = rng.below(static_cast<u32>(plen - start) + 1);
        DnaView v = parent.view(start, len);

        DnaSequence rc = v.revComp();
        ASSERT_EQ(rc.size(), len);
        for (std::size_t i = 0; i < len; ++i)
            ASSERT_EQ(rc.at(i), genomics::complementBase(
                                    parent.at(start + len - 1 - i)))
                << "it=" << it << " i=" << i;
    }
}

TEST(DnaViewOps, HammingAndEqualityMatchPerBase)
{
    util::Pcg32 rng(707);
    for (int it = 0; it < 200; ++it) {
        std::size_t len = rng.below(300);
        DnaSequence a = randomSeq(rng, len + 7);
        DnaSequence b = randomSeq(rng, len + 3);
        std::size_t sa = rng.below(8);
        std::size_t sb = rng.below(4);
        DnaView va = a.view(sa, len);
        DnaView vb = b.view(sb, len);

        u64 expect = 0;
        bool equal = true;
        for (std::size_t i = 0; i < len; ++i) {
            if (va.at(i) != vb.at(i)) {
                ++expect;
                equal = false;
            }
        }
        EXPECT_EQ(genomics::hammingDistance(va, vb), expect);
        EXPECT_EQ(va == vb, equal);
        EXPECT_TRUE(va == va);
    }
}

TEST(DnaViewOps, BitPlanesMatchPerBase)
{
    util::Pcg32 rng(808);
    for (int it = 0; it < 100; ++it) {
        std::size_t plen = 1 + rng.below(300);
        DnaSequence parent = randomSeq(rng, plen);
        std::size_t start = rng.below(static_cast<u32>(plen));
        std::size_t len = rng.below(static_cast<u32>(plen - start) + 1);
        DnaView v = parent.view(start, len);

        std::vector<u64> lo, hi;
        v.bitPlanes(lo, hi);
        ASSERT_EQ(lo.size(), (len + 63) / 64);
        for (std::size_t i = 0; i < len; ++i) {
            u8 code = parent.at(start + i);
            EXPECT_EQ((lo[i >> 6] >> (i & 63u)) & 1u, code & 1u);
            EXPECT_EQ((hi[i >> 6] >> (i & 63u)) & 1u, (code >> 1) & 1u);
        }
        // Bits past the end stay zero (the SHD masks rely on this).
        for (std::size_t i = len; i < 64 * lo.size(); ++i) {
            EXPECT_EQ((lo[i >> 6] >> (i & 63u)) & 1u, 0u);
            EXPECT_EQ((hi[i >> 6] >> (i & 63u)) & 1u, 0u);
        }
    }
}

TEST(DnaViewOps, AppendMatchesPushLoop)
{
    util::Pcg32 rng(909);
    for (int it = 0; it < 200; ++it) {
        DnaSequence dst = randomSeq(rng, rng.below(120));
        DnaSequence srcParent = randomSeq(rng, 1 + rng.below(200));
        std::size_t start = rng.below(static_cast<u32>(srcParent.size()));
        std::size_t len =
            rng.below(static_cast<u32>(srcParent.size() - start) + 1);

        DnaSequence expect = dst;
        for (std::size_t i = 0; i < len; ++i)
            expect.push(srcParent.at(start + i));

        DnaSequence got = dst;
        got.append(srcParent.view(start, len));
        ASSERT_EQ(got.size(), expect.size());
        EXPECT_EQ(got.packed(), expect.packed());
    }
}

TEST(DnaViewOps, SelfAppendIsSafe)
{
    DnaSequence s("ACGTACGTACGTACGTACGTACGTACGTACGTACG");
    std::string expect = s.toString() + s.toString().substr(3, 20);
    s.append(s.view(3, 20));
    EXPECT_EQ(s.toString(), expect);
}

// ---------------------------------------------------------------------------
// Zero-copy reference windows vs copied windows.
// ---------------------------------------------------------------------------

TEST(WindowView, MatchesCopyAcrossChromosomes)
{
    util::Pcg32 rng(111);
    genomics::Reference ref;
    ref.addChromosome("c1", randomSeq(rng, 500));
    ref.addChromosome("c2", randomSeq(rng, 129));
    ref.addChromosome("c3", randomSeq(rng, 64));

    for (int it = 0; it < 500; ++it) {
        GlobalPos pos = rng.below(static_cast<u32>(ref.totalLength() + 8));
        u64 len = rng.below(200);
        DnaSequence copy = ref.window(pos, len);
        DnaView view = ref.windowView(pos, len);
        ASSERT_EQ(view.size(), copy.size());
        EXPECT_TRUE(view == copy.view());
        if (!view.empty()) {
            EXPECT_EQ(view.at(0), ref.baseAt(pos));
        }
    }
    // Boundary clamp: a window straddling c1/c2 truncates at the c1 end.
    EXPECT_EQ(ref.windowView(490, 50).size(), 10u);
    // Past the genome: empty.
    EXPECT_TRUE(ref.windowView(ref.totalLength(), 10).empty());
}

// ---------------------------------------------------------------------------
// Packed-word minimizer stream vs the original per-base deque oracle.
// ---------------------------------------------------------------------------

/** The per-base implementation (extractMinimizersScalar). */
std::vector<baseline::Minimizer>
minimizerOracle(const DnaSequence &seq, const baseline::MinimizerParams &p)
{
    return baseline::extractMinimizersScalar(seq, p);
}

void
expectSameStream(const std::vector<baseline::Minimizer> &got,
                 const std::vector<baseline::Minimizer> &want,
                 const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].hash, want[i].hash) << what << " i=" << i;
        EXPECT_EQ(got[i].pos, want[i].pos) << what << " i=" << i;
        EXPECT_EQ(got[i].reverse, want[i].reverse) << what << " i=" << i;
    }
}

TEST(MinimizerStream, MatchesOracleOnRandomSequences)
{
    util::Pcg32 rng(121);
    const baseline::MinimizerParams configs[] = {
        { 21, 11, 500 }, // sr preset
        { 4, 1, 500 },   // minimal k, every-position window
        { 15, 10, 500 },
        { 31, 5, 500 },  // max k
        { 5, 64, 500 },  // window longer than most test sequences
    };
    int checked = 0;
    for (int it = 0; it < 1000; ++it) {
        const auto &p = configs[it % 5];
        // Bias lengths onto the 32/64-base word boundaries.
        std::size_t len;
        switch (rng.below(4)) {
        case 0: len = p.k + rng.below(40); break;
        case 1: len = 63 + rng.below(4); break;
        case 2: len = 127 + rng.below(4); break;
        default: len = 1 + rng.below(400); break;
        }
        DnaSequence seq = randomSeq(rng, len);
        expectSameStream(baseline::extractMinimizers(seq, p),
                         minimizerOracle(seq, p),
                         "it=" + std::to_string(it));
        ++checked;
    }
    EXPECT_EQ(checked, 1000);
}

TEST(MinimizerStream, MatchesOracleOnHomopolymersAndShortInputs)
{
    baseline::MinimizerParams p{ 5, 3, 500 };
    // Homopolymers exercise the palindrome-skip and tie rules.
    for (const char *s : { "", "A", "AAAA", "AAAAA", "AAAAAAAAAA",
                           "ACACACACACAC", "ACGTACGTACGT" }) {
        DnaSequence seq{ std::string_view(s) };
        expectSameStream(baseline::extractMinimizers(seq, p),
                         minimizerOracle(seq, p), s);
    }
}

// ---------------------------------------------------------------------------
// Ambiguous-base accounting.
// ---------------------------------------------------------------------------

TEST(AmbiguousBases, ConstructorCounts)
{
    u64 n = 0;
    DnaSequence s("ACGTNNRYacgtn", &n);
    EXPECT_EQ(n, 5u); // N N R Y n and nothing else
    EXPECT_EQ(s.size(), 13u);
    EXPECT_EQ(s.at(4), genomics::BaseA); // N still encodes as A
    u64 m = 0;
    DnaSequence clean("ACGTacgt", &m);
    EXPECT_EQ(m, 0u);
    EXPECT_TRUE(genomics::isAmbiguousBase('N'));
    EXPECT_FALSE(genomics::isAmbiguousBase('g'));
}

} // namespace
