/**
 * @file
 * Property tests pinning the SIMD-across-batch kernels lane-for-lane
 * against their scalar oracles, across every backend the host can run
 * (scalar / AVX2 / AVX-512), ragged final lane groups, window
 * straddles and mixed bands. The batch kernels promise bit-identical
 * output — not "close", identical — so every comparison here is exact
 * equality on scores, positions, cell counts, mask words and CIGARs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/affine.hh"
#include "align/shd.hh"
#include "filters/mask_ops.hh"
#include "filters/shd_filter.hh"
#include "genomics/reference.hh"
#include "genomics/scoring.hh"
#include "genpair/light_align.hh"
#include "oracles/oracles.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace {

using namespace gpx;
using genomics::DnaSequence;
using genomics::Reference;
using util::SimdBackend;

/**
 * Run @p fn under every backend the host supports, restoring the
 * session's backend afterwards. On a host without AVX2 the wider
 * requests clamp to scalar; skip those to avoid re-running the scalar
 * comparison under a misleading name.
 */
template <typename Fn>
void
forEachBackend(Fn &&fn)
{
    const SimdBackend prev = util::activeSimdBackend();
    for (SimdBackend want :
         { SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512 }) {
        const SimdBackend got = util::forceSimdBackend(want);
        if (got != want)
            continue; // host can't run it; clamped
        SCOPED_TRACE(std::string("backend=") + util::simdBackendName(got));
        fn();
    }
    util::forceSimdBackend(prev);
}

DnaSequence
randomSeq(util::Pcg32 &rng, u64 len)
{
    std::string s;
    for (u64 i = 0; i < len; ++i)
        s.push_back(genomics::baseToChar(rng.below(4)));
    return DnaSequence(s);
}

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

TEST(Simd, BackendNamesAndClamping)
{
    EXPECT_STREQ(util::simdBackendName(SimdBackend::Scalar), "scalar");
    EXPECT_STREQ(util::simdBackendName(SimdBackend::Avx2), "avx2");
    EXPECT_STREQ(util::simdBackendName(SimdBackend::Avx512), "avx512");

    const SimdBackend prev = util::activeSimdBackend();
    // A forced request never exceeds what the host supports, and the
    // install is reflected by activeSimdBackend.
    for (SimdBackend want :
         { SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512 }) {
        const SimdBackend got = util::forceSimdBackend(want);
        EXPECT_LE(static_cast<int>(got),
                  static_cast<int>(util::maxSimdBackend()));
        EXPECT_EQ(got, util::activeSimdBackend());
    }
    EXPECT_FALSE(util::simdBackendReason().empty());
    util::forceSimdBackend(prev);

    EXPECT_EQ(util::simdDpLanes(SimdBackend::Scalar), 1u);
    EXPECT_EQ(util::simdDpLanes(SimdBackend::Avx2), 16u);
    EXPECT_EQ(util::simdDpLanes(SimdBackend::Avx512), 32u);
    EXPECT_EQ(util::simdMaskLanes(SimdBackend::Scalar), 1u);
    EXPECT_EQ(util::simdMaskLanes(SimdBackend::Avx2), 4u);
    EXPECT_EQ(util::simdMaskLanes(SimdBackend::Avx512), 8u);
}

TEST(Simd, ZeroRunCountMatchesBitwalkOracle)
{
    util::Pcg32 rng(2024);
    for (int iter = 0; iter < 400; ++iter) {
        align::HammingMask mask;
        mask.bits = 1 + rng.below(300);
        mask.words.assign((mask.bits + 63) / 64, 0);
        // Mix densities so runs of both parities straddle word edges.
        const u32 density = 1 + rng.below(7);
        for (u32 i = 0; i < mask.bits; ++i)
            if (rng.below(8) < density)
                mask.words[i >> 6] |= u64{ 1 } << (i & 63u);
        // Leave junk above mask.bits in the last word on some iters:
        // zeroRunCount must ignore it.
        if ((mask.bits & 63u) != 0 && rng.below(2))
            mask.words.back() |= ~u64{ 0 } << (mask.bits & 63u);
        ASSERT_EQ(filters::zeroRunCount(mask), filters::zeroRunCountRef(mask))
            << "bits=" << mask.bits << " iter=" << iter;
    }

    // Edge shapes: all-zero, all-one, exact word multiples.
    for (u32 bits : { 1u, 63u, 64u, 65u, 128u, 192u }) {
        align::HammingMask zeros, ones;
        zeros.bits = ones.bits = bits;
        zeros.words.assign((bits + 63) / 64, 0);
        ones.words.assign((bits + 63) / 64, ~u64{ 0 });
        EXPECT_EQ(filters::zeroRunCount(zeros), 1u) << bits;
        EXPECT_EQ(filters::zeroRunCount(ones), 0u) << bits;
        EXPECT_EQ(filters::zeroRunCountRef(zeros), 1u) << bits;
        EXPECT_EQ(filters::zeroRunCountRef(ones), 0u) << bits;
    }
}

TEST(Simd, ShdBatchMatchesScalarMasks)
{
    forEachBackend([] {
        util::Pcg32 rng(7001);
        align::ShdBatch batch;
        std::vector<align::HammingMask> want;
        for (int iter = 0; iter < 120; ++iter) {
            const u32 e = 1 + rng.below(7);
            const u32 n = 30 + rng.below(170);
            const u32 center = e + rng.below(80);
            const u32 L = 1 + rng.below(9); // ragged vs lane width
            batch.begin(L, n, center, e);
            std::vector<DnaSequence> reads, wins;
            std::vector<align::BitPlanes> rp(L), wp(L);
            for (u32 l = 0; l < L; ++l) {
                reads.push_back(randomSeq(rng, n));
                // Windows from shorter-than-read (straddle) to ample.
                const u32 wlen = center + rng.below(n + 2 * e + 40);
                wins.push_back(randomSeq(rng, wlen ? wlen : 1));
                rp[l].assign(reads[l]);
                wp[l].assign(wins[l]);
                batch.setLane(l, rp[l], wp[l]);
            }
            batch.run();
            for (u32 l = 0; l < L; ++l) {
                align::shiftedMasksInto(rp[l], wp[l], center, e, want);
                for (u32 s = 0; s < batch.shifts(); ++s) {
                    for (u32 w = 0; w < batch.readWords; ++w)
                        ASSERT_EQ(batch.maskWord(s, w, l), want[s].words[w])
                            << "iter=" << iter << " l=" << l << " s=" << s
                            << " w=" << w << " n=" << n
                            << " center=" << center << " e=" << e
                            << " win=" << wins[l].size();
                    ASSERT_EQ(batch.pop(s, l), want[s].popcount());
                    ASSERT_EQ(batch.pre(s, l), want[s].onesPrefix());
                    ASSERT_EQ(batch.suf(s, l), want[s].onesSuffix());
                }
            }
        }
    });
}

/**
 * Run @p tasks through fitAlignBatch under the active backend, expect
 * every result to equal fitAlign's field for field, and return the
 * sweeps' lane fill. @p bscr may carry stale state from earlier calls.
 */
align::LaneFill
expectBatchMatchesScalar(const std::vector<align::FitTask> &tasks,
                         const genomics::ScoringScheme &sc,
                         align::BatchAlignScratch &bscr)
{
    align::AlignScratch sscr;
    std::vector<align::AlignResult> got(tasks.size());
    const align::LaneFill fill = align::fitAlignBatch(
        tasks.data(), tasks.size(), sc, bscr, got.data());
    for (std::size_t k = 0; k < tasks.size(); ++k) {
        const align::AlignResult want = align::fitAlign(
            tasks[k].query, tasks[k].target, sc, tasks[k].band, sscr);
        SCOPED_TRACE("k=" + std::to_string(k) +
                     " m=" + std::to_string(tasks[k].query.size()) +
                     " n=" + std::to_string(tasks[k].target.size()) +
                     " band=" + std::to_string(tasks[k].band));
        EXPECT_EQ(want.valid, got[k].valid);
        EXPECT_EQ(want.score, got[k].score);
        EXPECT_EQ(want.targetStart, got[k].targetStart);
        EXPECT_EQ(want.targetEnd, got[k].targetEnd);
        EXPECT_EQ(want.cellUpdates, got[k].cellUpdates);
        EXPECT_EQ(want.cigar.toString(), got[k].cigar.toString());
    }
    return fill;
}

TEST(Simd, FitAlignBatchMatchesScalar)
{
    const genomics::ScoringScheme sc = genomics::ScoringScheme::shortRead();
    forEachBackend([&sc] {
        util::Pcg32 rng(9113);
        align::BatchAlignScratch bscr;
        for (int iter = 0; iter < 50; ++iter) {
            const std::size_t count = 1 + rng.below(25);
            std::vector<DnaSequence> qs, ts;
            std::vector<align::FitTask> tasks;
            u64 m = 20 + rng.below(180);
            for (std::size_t k = 0; k < count; ++k) {
                if (rng.below(5) == 0)
                    m = 20 + rng.below(180); // new length -> new lane group
                DnaSequence q = randomSeq(rng, m);
                DnaSequence t;
                if (rng.below(2)) {
                    // Mutated copy: mismatches, deletions, insertions.
                    std::string body;
                    for (u64 i = 0; i < m; ++i) {
                        const u32 r = rng.below(20);
                        char b = genomics::baseToChar(q.at(i));
                        if (r == 0)
                            b = genomics::baseToChar(rng.below(4));
                        if (r == 1)
                            continue;
                        body.push_back(b);
                        if (r == 2)
                            body.push_back(genomics::baseToChar(rng.below(4)));
                    }
                    std::string pad;
                    for (int i = 0; i < 30; ++i)
                        pad.push_back(genomics::baseToChar(rng.below(4)));
                    t = DnaSequence(pad + body + pad);
                } else {
                    t = randomSeq(rng, 1 + rng.below(m + 120));
                }
                qs.push_back(std::move(q));
                ts.push_back(std::move(t));
            }
            for (std::size_t k = 0; k < count; ++k) {
                align::FitTask ft;
                ft.query = qs[k];
                ft.target = ts[k];
                const u32 r = rng.below(4);
                ft.band = -1;
                if (r == 0)
                    ft.band = static_cast<i32>(8 + rng.below(40));
                if (r == 1)
                    ft.band = 80;
                if (r == 2)
                    ft.band = 128;
                tasks.push_back(ft);
            }
            SCOPED_TRACE("iter=" + std::to_string(iter));
            expectBatchMatchesScalar(tasks, sc, bscr);
            ASSERT_FALSE(::testing::Test::HasFailure());
        }
    });
}

TEST(Simd, FitAlignBatchCountsLaneFill)
{
    // 20 tasks of one query length and one degenerate (empty) task: a
    // SIMD backend sweeps ceil(20 / lanes) groups carrying 20 lanes,
    // the scalar backend one group per task; the empty task takes none.
    const genomics::ScoringScheme sc = genomics::ScoringScheme::shortRead();
    forEachBackend([&sc] {
        util::Pcg32 rng(4242);
        std::vector<DnaSequence> qs, ts;
        for (int k = 0; k < 20; ++k) {
            qs.push_back(randomSeq(rng, 60));
            ts.push_back(randomSeq(rng, 90));
        }
        std::vector<align::FitTask> tasks;
        for (std::size_t k = 0; k < qs.size(); ++k) {
            if (k == 7)
                tasks.push_back(align::FitTask{});
            tasks.push_back({ qs[k], ts[k], 40 });
        }
        align::BatchAlignScratch bscr;
        std::vector<align::AlignResult> out(tasks.size());
        const align::LaneFill fill = align::fitAlignBatch(
            tasks.data(), tasks.size(), sc, bscr, out.data());
        const u64 lanes = util::simdDpLanes(util::activeSimdBackend());
        // The empty task splits the run of equal lengths in two.
        EXPECT_EQ(fill.lanesUsed, 20u);
        EXPECT_EQ(fill.laneGroups,
                  (7 + lanes - 1) / lanes + (13 + lanes - 1) / lanes);
    });
}

/**
 * The documented i16 lane bound (affine_simd.cc, fitsI16Lanes): a group
 * of query length m and widest target nMax runs in i16 lanes iff
 * (m + nMax) * s + m * match < 2^14, s = max(mismatch, q1+e1, q2+e2).
 * Returns the widest target a group of query length @p m may have.
 */
i64
widestTargetInside(std::size_t m, const genomics::ScoringScheme &sc)
{
    const i64 s = std::max({ sc.mismatch, sc.gapOpen1 + sc.gapExtend1,
                             sc.gapOpen2 + sc.gapExtend2 });
    const i64 room = (i64{ 1 } << 14) - 1 - static_cast<i64>(m) * sc.match;
    return room / s - static_cast<i64>(m);
}

/**
 * Sweeps fitAlignBatch runs for one length-uniform group of @p tasks:
 * full-width i16 sweeps inside the bound, half-width i32 sweeps
 * outside it, one per task on the scalar backend.
 */
u64
groupsFor(std::size_t tasks, bool inside)
{
    const u64 lanes = util::simdDpLanes(util::activeSimdBackend());
    const u64 width = inside || lanes == 1 ? lanes : lanes / 2;
    return (tasks + width - 1) / width;
}

/** Query @p q mutated by an @p del-base deletion and an insertion. */
DnaSequence
withLongGaps(util::Pcg32 &rng, const DnaSequence &q, u64 del, u64 ins)
{
    std::string body;
    const u64 cut = q.size() / 3, put = 2 * q.size() / 3;
    for (u64 i = 0; i < q.size(); ++i) {
        if (i >= cut && i < cut + del)
            continue;
        if (i == put)
            for (u64 k = 0; k < ins; ++k)
                body.push_back(genomics::baseToChar(rng.below(4)));
        body.push_back(genomics::baseToChar(q.at(i)));
    }
    return DnaSequence(body);
}

TEST(Simd, FitAlignBatchI16BoundEdges)
{
    // Groups whose widest target sits exactly on the bound run in i16
    // lanes; one base wider sends the group to half-width i32 lanes.
    // Both must match fitAlign lane for lane, under the sr
    // scheme and under schemes that make the bound's step s large
    // (maximum mismatch, long two-piece gaps).
    std::vector<genomics::ScoringScheme> schemes(4);
    schemes[1].mismatch = 120;                    // mismatch dominates s
    schemes[2].gapOpen2 = 90;                     // long second piece
    schemes[2].gapExtend2 = 1;
    schemes[3] = { 5, 4, 30, 3, 200, 0 };         // free gap extension
    forEachBackend([&schemes] {
        util::Pcg32 rng(6007);
        align::BatchAlignScratch bscr;
        for (const auto &sc : schemes) {
            for (std::size_t m : { 24u, 60u, 150u }) {
                if (widestTargetInside(m, sc) < static_cast<i64>(m))
                    continue; // no window fits this read under sc
                const auto nIn =
                    static_cast<std::size_t>(widestTargetInside(m, sc));
                for (const bool inside : { true, false }) {
                    const std::size_t nMax = inside ? nIn : nIn + 1;
                    SCOPED_TRACE("mismatch=" + std::to_string(sc.mismatch) +
                                 " q2=" + std::to_string(sc.gapOpen2) +
                                 " m=" + std::to_string(m) +
                                 " nMax=" + std::to_string(nMax));
                    std::vector<DnaSequence> qs, ts;
                    for (int k = 0; k < 21; ++k) {
                        qs.push_back(randomSeq(rng, m));
                        // Every 16th task carries the widest target,
                        // so each lane group at any width has one;
                        // the rest are narrower and mostly related.
                        const u64 n = k % 16 == 0
                                          ? nMax
                                          : m + rng.below(nMax - m + 1);
                        if (k % 3 == 0) {
                            ts.push_back(randomSeq(rng, n));
                        } else {
                            DnaSequence g = withLongGaps(
                                rng, qs.back(), rng.below(m / 4),
                                rng.below(m / 4));
                            std::string t = g.toString();
                            while (t.size() < n)
                                t.push_back(genomics::baseToChar(rng.below(4)));
                            t.resize(n);
                            ts.push_back(DnaSequence(t));
                        }
                    }
                    std::vector<align::FitTask> tasks;
                    for (std::size_t k = 0; k < qs.size(); ++k)
                        tasks.push_back({ qs[k], ts[k],
                                          k % 2 ? -1 : static_cast<i32>(
                                                           8 + rng.below(m)) });
                    const align::LaneFill fill =
                        expectBatchMatchesScalar(tasks, sc, bscr);
                    EXPECT_EQ(fill.lanesUsed, tasks.size());
                    EXPECT_EQ(fill.laneGroups, groupsFor(tasks.size(), inside));
                }
            }
        }
    });
}

TEST(Simd, FitAlignBatchAllMismatchTargets)
{
    // Every cell mismatches, so the best path is all gaps and
    // mismatches and scores sit as low as a full-length group allows;
    // the banded lanes also leave many cells unreachable.
    genomics::ScoringScheme maxMismatch;
    maxMismatch.mismatch = 40;
    genomics::ScoringScheme cheapGaps;
    cheapGaps.gapOpen1 = 2;
    cheapGaps.gapExtend1 = 1;
    cheapGaps.gapOpen2 = 3;
    cheapGaps.gapExtend2 = 1;
    for (const auto &sc :
         { genomics::ScoringScheme::shortRead(), maxMismatch, cheapGaps }) {
        forEachBackend([&sc] {
            const std::size_t m = 100;
            ASSERT_GE(widestTargetInside(m, sc), static_cast<i64>(m));
            const auto nMax =
                static_cast<std::size_t>(widestTargetInside(m, sc));
            const DnaSequence q(std::string(m, 'A'));
            std::vector<DnaSequence> ts;
            for (std::size_t n : { m, (m + nMax) / 2, nMax, std::size_t{ 1 } })
                ts.push_back(DnaSequence(std::string(n, 'C')));
            std::vector<align::FitTask> tasks;
            for (const auto &t : ts)
                for (i32 band : { -1, 0, 3, 64 })
                    tasks.push_back({ q, t, band });
            align::BatchAlignScratch bscr;
            const align::LaneFill fill =
                expectBatchMatchesScalar(tasks, sc, bscr);
            EXPECT_EQ(fill.laneGroups, groupsFor(tasks.size(), true));
        });
    }
}

TEST(Simd, FitAlignBatchRoutesScoresBeyondI16)
{
    // Under this scheme every gap costs over 21,000, so an
    // all-mismatch 24 x 60 alignment scores -24,000, below the i16
    // sentinel, and its gap candidates leave the i16 range: only the
    // bound's i32 route keeps such a group exact.
    const genomics::ScoringScheme sc{ 2, 1000, 20000, 1000, 20000, 1000 };
    forEachBackend([&sc] {
        const DnaSequence q(std::string(24, 'A'));
        const DnaSequence t(std::string(60, 'C'));
        const DnaSequence u(std::string(60, 'A'));
        align::AlignScratch sscr;
        ASSERT_EQ(align::fitAlign(q, t, sc, -1, sscr).score, -24000);
        std::vector<align::FitTask> tasks;
        for (i32 band : { -1, 2, 40 }) {
            tasks.push_back({ q, t, band });
            tasks.push_back({ q, u, band });
        }
        align::BatchAlignScratch bscr;
        const align::LaneFill fill =
            expectBatchMatchesScalar(tasks, sc, bscr);
        EXPECT_EQ(fill.laneGroups, groupsFor(tasks.size(), false));
    });
}

TEST(Simd, FitAlignBatchMixesI16AndI32Groups)
{
    // i16 groups and groups routed to i32 lanes interleave in one
    // batch: results stay exact, and each i32 sweep counts one lane
    // group carrying at most half the i16 width.
    const genomics::ScoringScheme sc = genomics::ScoringScheme::shortRead();
    forEachBackend([&sc] {
        util::Pcg32 rng(8128);
        std::vector<DnaSequence> qs, ts;
        const std::size_t lens[] = { 80, 200, 80, 120 };
        const std::size_t sizes[] = { 37, 5, 9, 20 };
        const bool inside[] = { true, false, true, false };
        for (int g = 0; g < 4; ++g) {
            const std::size_t m = lens[g];
            const auto nIn =
                static_cast<std::size_t>(widestTargetInside(m, sc));
            for (std::size_t k = 0; k < sizes[g]; ++k) {
                qs.push_back(randomSeq(rng, m));
                // An outside lane group needs one over-wide target;
                // k % 16 == 2 puts one in every group at any width.
                const std::size_t n =
                    !inside[g] && k % 16 == 2 ? nIn + 1 + rng.below(40)
                                              : m + rng.below(nIn - m + 1);
                ts.push_back(randomSeq(rng, n));
            }
        }
        std::vector<align::FitTask> tasks;
        for (std::size_t k = 0; k < qs.size(); ++k)
            tasks.push_back({ qs[k], ts[k], rng.below(2) ? -1 : 100 });
        align::BatchAlignScratch bscr;
        const align::LaneFill fill =
            expectBatchMatchesScalar(tasks, sc, bscr);
        u64 groups = 0;
        for (int g = 0; g < 4; ++g)
            groups += groupsFor(sizes[g], inside[g]);
        EXPECT_EQ(fill.lanesUsed, tasks.size());
        EXPECT_EQ(fill.laneGroups, groups);
    });
}

TEST(Simd, ShdFilterBatchMatchesScalar)
{
    filters::ShdFilter filter;
    forEachBackend([&filter] {
        util::Pcg32 rng(5521);
        for (int iter = 0; iter < 60; ++iter) {
            const u32 e = 1 + rng.below(5);
            const u32 n = 40 + rng.below(140);
            const u32 center = e + rng.below(40);
            const std::size_t count = 1 + rng.below(13);
            const DnaSequence read = randomSeq(rng, n);
            std::vector<DnaSequence> winSeqs;
            for (std::size_t i = 0; i < count; ++i) {
                if (rng.below(2)) {
                    // Window embedding the read (should mostly accept).
                    DnaSequence w = randomSeq(rng, center + n + e + 10);
                    for (u32 j = 0; j < n; ++j) {
                        u8 b = read.at(j);
                        if (rng.below(40) == 0)
                            b = static_cast<u8>(rng.below(4));
                        w.set(center + j, b);
                    }
                    winSeqs.push_back(std::move(w));
                } else {
                    const u32 wlen = center + rng.below(n + 2 * e + 20);
                    winSeqs.push_back(randomSeq(rng, wlen ? wlen : 1));
                }
            }
            std::vector<genomics::DnaView> views;
            for (const auto &w : winSeqs)
                views.push_back(w);
            std::vector<filters::FilterDecision> got(count);
            filter.evaluateBatch(read, views.data(), count, center, e,
                                 got.data());
            for (std::size_t i = 0; i < count; ++i) {
                const filters::FilterDecision want =
                    filter.evaluate(read, views[i], center, e);
                ASSERT_EQ(want.accept, got[i].accept)
                    << "iter=" << iter << " i=" << i;
                ASSERT_EQ(want.estimatedEdits, got[i].estimatedEdits)
                    << "iter=" << iter << " i=" << i;
            }
        }
    });
}

TEST(Simd, LightAlignBatchMatchesScalar)
{
    const Reference ref = randomRef(6000, 417);
    genpair::LightAlignParams params;
    const genpair::LightAligner aligner(ref, params);
    forEachBackend([&ref, &aligner, &params] {
        util::Pcg32 rng(31337);
        genpair::LightBatchScratch scratch;
        for (int iter = 0; iter < 40; ++iter) {
            const std::size_t count = 1 + rng.below(21);
            std::vector<DnaSequence> reads;
            std::vector<align::BitPlanes> planes;
            std::vector<genpair::LightBatchItem> items;
            reads.reserve(count);
            planes.reserve(count);
            u64 len = 100 + 10 * rng.below(8);
            for (std::size_t i = 0; i < count; ++i) {
                if (rng.below(4) == 0)
                    len = 100 + 10 * rng.below(8); // ragged lane groups
                if (rng.below(24) == 0)
                    len = rng.below(2); // empty and 1 bp reads
                GlobalPos pos = rng.below(5800);
                if (rng.below(8) == 0)
                    pos = rng.below(2 * params.maxShift); // left edge
                if (rng.below(16) == 0)
                    pos = 5900 + rng.below(100); // straddles the ref end
                DnaSequence read = ref.window(pos, len);
                if (read.size() != len)
                    read = randomSeq(rng, len); // truncated: noise read
                // Sprinkle the Table-1 edit classes and noise.
                const u32 mode = rng.below(4);
                if (mode == 1 && len > 0)
                    for (u32 k = 0; k < 1 + rng.below(4); ++k)
                        read.set(rng.below(static_cast<u32>(len)),
                                 static_cast<u8>(rng.below(4)));
                if (mode == 2)
                    read = randomSeq(rng, len); // hopeless candidate
                reads.push_back(std::move(read));
                planes.emplace_back(reads.back());
                items.push_back({ &planes.back(), pos });
            }
            std::vector<genpair::LightResult> got(count);
            aligner.alignBatch(items.data(), count, scratch, got.data());
            for (std::size_t i = 0; i < count; ++i) {
                const genpair::LightOracleResult want =
                    genpair::lightAlignOracle(ref, params, reads[i],
                                              items[i].candidate);
                SCOPED_TRACE("iter=" + std::to_string(iter) +
                             " i=" + std::to_string(i) + " pos=" +
                             std::to_string(items[i].candidate) +
                             " len=" + std::to_string(reads[i].size()));
                ASSERT_EQ(want.aligned, got[i].aligned);
                ASSERT_EQ(want.score, got[i].score);
                ASSERT_EQ(want.pos, got[i].pos);
                ASSERT_EQ(want.hypothesesTried, got[i].hypothesesTried);
                ASSERT_EQ(want.cigar.toString(), got[i].cigar().toString());
            }
        }
    });
}

} // namespace
