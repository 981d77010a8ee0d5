/**
 * @file
 * Inter-sequence interleaved banded-affine fitting alignment.
 *
 * fitAlignBatch() advances up to L independent alignments per band
 * sweep: lane l of every struct-of-lanes row (H/E1/E2/F1/F2) belongs
 * to task l of the current lane group, so one pass over the band
 * columns updates L DP cells with the exact arithmetic of the scalar
 * branchless engine (affine.cc). Lanes never exchange data — per-lane
 * activity masks cover ragged target lengths, differing bands and
 * early-drained lanes — so every per-task result is bit-identical to
 * fitAlign() by construction; the randomized oracle tests in
 * tests/test_simd.cc pin that lane for lane.
 *
 * Lanes hold i16 scores: 16 per AVX2 sweep, 32 per AVX-512BW sweep,
 * twice what i32 lanes fit. A lane group whose scores could leave the
 * i16 range (fitsI16Lanes() below states the bound; past ~194 bp reads
 * under the sr scheme) runs the same template in i32 lanes instead,
 * half as many per sweep, with the scalar engine's own arithmetic.
 *
 * Layout notes:
 *  - Rows are lane-major: row[j*L + l]. The traceback matrix is too
 *    ([(i*(nMax+1)+j)*L + l]), so the L flag bytes of cell (i, j) form
 *    one contiguous store per sweep step; the traceback walk reads one
 *    lane back out through a strided accessor.
 *  - Lane groups are consecutive tasks with equal query length m (the
 *    rows of a group share the query index i). Short-read batches are
 *    length-uniform, so groups fill; a length change just starts a new
 *    group. Lanes whose band drains early (small n) go inactive via
 *    the same mask; fresh tasks refill the lanes at the next group.
 *
 * The inner loop is written as a fixed-trip-count lane loop of plain
 * selects so the compiler's vectorizer turns it into compare/blend
 * vectors under the function-level target("avx2")/target("avx512...")
 * attributes — no global -m flags, no intrinsics, one template
 * instantiated per ISA and lane score type (util/simd.hh picks the
 * backend at runtime).
 */

#include <algorithm>

#include "align/affine.hh"
#include "align/affine_internal.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace gpx {
namespace align {

using genomics::DnaView;
using genomics::ScoringScheme;

namespace {

using namespace affine_detail;

/**
 * The −∞ sentinel of a lane score type. i32 lanes use the scalar
 * engines' kNegInf (−2^29), so their arithmetic is the scalar
 * engine's; i16 lanes use −2^14, and fitsI16Lanes() keeps their
 * arithmetic in step with it.
 */
template <typename Score>
constexpr Score kLaneNegInf = kNegInf;
template <>
constexpr i16 kLaneNegInf<i16> = -(1 << 14);

/**
 * The no-overflow bound under which the i16-lane fill is an exact
 * translation of the i32 scalar engine. Let s = max(mismatch, q1+e1,
 * q2+e2), the largest amount one DP step can lower a score, and
 * N = −kLaneNegInf<i16> = 2^14. A group runs in i16 lanes iff
 * every scoring parameter is non-negative and
 *
 *     (m + nMax) * s + m * match < N    (and m, nMax < N);
 *
 * any other group runs in i32 lanes, which need no bound of their own
 * because they compute exactly the scalar engine's i32 values.
 *
 * Why that suffices. Every value the fill computes at cell (i, j) —
 * stored H/E/F or a rejected open/extend candidate — is one step away
 * from a value at a cell (i', j') with i' + j' < i + j, or from a
 * boundary value: 0 in row 0, −gapCost(i) >= −i*s in column 0, or −∞
 * for the kNegInf-filled rows and fresh E/F. So by induction on i + j:
 *  - a value derived from finite boundary values ("finite") lies in
 *    [−(m + nMax) * s, m * match];
 *  - a value derived from −∞ lies in
 *    [−∞ − (m + nMax) * s, −∞ + m * match].
 * The bound puts the first interval inside i16 and the second below
 * it without wrapping: −N − (m+nMax)*s > −2N, and −N + m*match is
 * below −(m+nMax)*s. The i32 engine has the same two intervals around
 * kNegInf, far apart. So each max, compare and "== −∞" test in the
 * lane loop decides exactly as in the i32 engine: finite values are
 * equal in both, values derived from −∞ sit the same distance from
 * their sentinel, and the finite side always wins a mixed compare.
 * Every flag — every traceback byte, even of unreachable cells — and
 * every score is therefore unchanged. 150 bp reads in 246 bp windows
 * with the sr scheme need 396 * 33 + 300 = 13,368 < 16,384. Under the
 * sr scheme the bound holds for reads up to 194 bp in mapPairsBatch's
 * m + 96 windows and up to 217 bp in alignAtBatch's m + 48 windows;
 * longer reads run in i32 lanes.
 */
bool
fitsI16Lanes(std::size_t m, std::size_t nMax, const ScoringScheme &sc)
{
    if (sc.match < 0 || sc.mismatch < 0 || sc.gapOpen1 < 0 ||
        sc.gapExtend1 < 0 || sc.gapOpen2 < 0 || sc.gapExtend2 < 0)
        return false;
    const i64 limit = -i64{ kLaneNegInf<i16> };
    if (m >= static_cast<std::size_t>(limit) ||
        nMax >= static_cast<std::size_t>(limit))
        return false;
    const i64 step = std::max<i64>({ sc.mismatch,
                                     i64{ sc.gapOpen1 } + sc.gapExtend1,
                                     i64{ sc.gapOpen2 } + sc.gapExtend2 });
    return static_cast<i64>(m + nMax) * step +
               static_cast<i64>(m) * sc.match <
           limit;
}

/** Per-group fill-loop inputs (everything the hot loop touches). */
template <typename Score, u32 L>
struct FillArgs
{
    std::size_t m = 0;    ///< uniform query length of the group
    std::size_t nMax = 0; ///< widest target in the group
    std::size_t n[L];     ///< per-lane target length (0 = unused lane)
    i64 band[L];          ///< per-lane band half-width (<0 = unbanded)
    const ScoringScheme *sc = nullptr;
    const Score *queryCodes = nullptr;  ///< lane-major [(i-1)*L + l]
    const Score *targetCodes = nullptr; ///< lane-major [(j-1)*L + l]
    Score *hPrev = nullptr;             ///< lane-major rows, (nMax+1)*L
    Score *hCur = nullptr;
    Score *f1 = nullptr;
    Score *f2 = nullptr;
    u8 *tb = nullptr; ///< lane-major matrix, (m+1)*(nMax+1)*L
};

/**
 * One band column of the interleaved sweep: update the L lanes of DP
 * cell (i, j). Factored out so the pointers are restrict-qualified
 * function parameters — GCC only gives restrict full disambiguation
 * force on parameters, and without it the lane loop exceeds the
 * vectorizer's runtime alias-check budget and stays scalar.
 */
template <typename Score, u32 L>
[[gnu::always_inline]] inline void
fitStep(Score jj, Score oe1, Score oe2, Score ge1, Score ge2, Score match,
        Score mismatch, const Score *__restrict__ qRow,
        const Score *__restrict__ tcj, const Score *__restrict__ hcl,
        Score *__restrict__ hcj, const Score *__restrict__ hpj,
        const Score *__restrict__ hpd, Score *__restrict__ f1j,
        Score *__restrict__ f2j, u8 *__restrict__ tbj,
        Score *__restrict__ e1Lane, Score *__restrict__ e2Lane,
        const Score *__restrict__ jLoA, const Score *__restrict__ jHiA)
{
    constexpr Score negInf = kLaneNegInf<Score>;
    Score flagsOut[L];
    // The restrict qualifiers above are the truth (lanes are disjoint
    // and every pointer block is a distinct scratch range), but after
    // inlining GCC still versions the loop for aliasing and gives up
    // past 10 pointer pairs; ivdep waives those checks outright.
#pragma GCC ivdep
    for (u32 l = 0; l < L; ++l) {
        // Bitwise &, not && — short-circuit control flow inside the
        // lane loop blocks if-conversion and with it vectorization.
        const bool act =
            static_cast<bool>(static_cast<int>(jj >= jLoA[l]) &
                              static_cast<int>(jj <= jHiA[l]));

        // E: gap consuming target (deletion from the read).
        const Score hLeft = hcl[l];
        const Score e1Open = hLeft - oe1;
        const Score e1Ext = e1Lane[l] - ge1;
        const bool x1 = e1Ext > e1Open;
        const Score e1v = x1 ? e1Ext : e1Open;
        const Score e2Open = hLeft - oe2;
        const Score e2Ext = e2Lane[l] - ge2;
        const bool x2 = e2Ext > e2Open;
        const Score e2v = x2 ? e2Ext : e2Open;

        // F: gap consuming query (insertion).
        const Score hUp = hpj[l];
        const Score f1Open = hUp - oe1;
        const Score f1Ext = f1j[l] - ge1;
        const bool x3 = f1Ext > f1Open;
        const Score f1v = x3 ? f1Ext : f1Open;
        const Score f2Open = hUp - oe2;
        const Score f2Ext = f2j[l] - ge2;
        const bool x4 = f2Ext > f2Open;
        const Score f2v = x4 ? f2Ext : f2Open;

        const Score hDiag = hpd[l];
        const Score sub = qRow[l] == tcj[l] ? match : -mismatch;
        const Score diag = hDiag == negInf ? negInf : hDiag + sub;

        Score h = diag;
        Score src = kSrcDiag;
        src = e1v > h ? kSrcE1 : src;
        h = e1v > h ? e1v : h;
        src = e2v > h ? kSrcE2 : src;
        h = e2v > h ? e2v : h;
        src = f1v > h ? kSrcF1 : src;
        h = f1v > h ? f1v : h;
        src = f2v > h ? kSrcF2 : src;
        h = f2v > h ? f2v : h;

        const Score flags = src | (static_cast<Score>(x1) << 3) |
                            (static_cast<Score>(x2) << 4) |
                            (static_cast<Score>(x3) << 5) |
                            (static_cast<Score>(x4) << 6);

        // Blend through an all-ones/all-zeros mask rather than
        // `act ? v : old`: GCC rewrites that select as a conditional
        // store, and AVX2 has no 16-bit masked store to vectorize it.
        const Score keep = static_cast<Score>(-static_cast<Score>(act));
        e1Lane[l] = (e1v & keep) | (e1Lane[l] & ~keep);
        e2Lane[l] = (e2v & keep) | (e2Lane[l] & ~keep);
        f1j[l] = (f1v & keep) | (f1j[l] & ~keep);
        f2j[l] = (f2v & keep) | (f2j[l] & ~keep);
        hcj[l] = (h & keep) | (hcj[l] & ~keep);
        flagsOut[l] = flags & keep;
    }
    // Narrow the flag lane to its traceback bytes in a second loop:
    // a u8 store inside the score loop above defeats the vectorizer
    // ("complicated access pattern"), while this pack loop and the
    // main loop each vectorize cleanly.
    for (u32 l = 0; l < L; ++l)
        tbj[l] = static_cast<u8>(flagsOut[l]);
}

/**
 * The interleaved Fit-mode fill loop. Marked always_inline so each
 * target-attributed wrapper below compiles its own copy under that
 * wrapper's ISA — the whole point of the multiversioning scheme.
 * Returns the row buffer holding row m (the swap chain's final hPrev).
 */
template <typename Score, u32 L>
[[gnu::always_inline]] inline const Score *
fitFillLanes(const FillArgs<Score, L> &a)
{
    constexpr Score negInf = kLaneNegInf<Score>;
    const ScoringScheme &sc = *a.sc;
    const Score oe1 = static_cast<Score>(sc.gapOpen1 + sc.gapExtend1);
    const Score oe2 = static_cast<Score>(sc.gapOpen2 + sc.gapExtend2);
    const Score ge1 = static_cast<Score>(sc.gapExtend1);
    const Score ge2 = static_cast<Score>(sc.gapExtend2);
    const Score match = static_cast<Score>(sc.match);
    const Score mismatch = static_cast<Score>(sc.mismatch);
    const std::size_t rowElems = (a.nMax + 1) * L;

    Score *__restrict__ hp = a.hPrev;
    Score *__restrict__ hc = a.hCur;
    Score *__restrict__ f1 = a.f1;
    Score *__restrict__ f2 = a.f2;
    u8 *__restrict__ tb = a.tb;
    const Score *__restrict__ queryCodes = a.queryCodes;
    const Score *__restrict__ targetCodes = a.targetCodes;

    // Row 0 (Fit): free target start up to each lane's n.
    std::fill(hp, hp + rowElems, negInf);
    std::fill(hc, hc + rowElems, negInf);
    std::fill(f1, f1 + rowElems, negInf);
    std::fill(f2, f2 + rowElems, negInf);
    for (u32 l = 0; l < L; ++l) {
        for (std::size_t j = 0; j <= a.n[l]; ++j) {
            hp[j * L + l] = 0;
            tb[j * L + l] = kSrcStart;
        }
    }

    alignas(64) Score e1Lane[L];
    alignas(64) Score e2Lane[L];
    alignas(64) Score jLoA[L];
    alignas(64) Score jHiA[L];

    for (std::size_t i = 1; i <= a.m; ++i) {
        std::size_t jMin = a.nMax + 1, jMax = 0;
        for (u32 l = 0; l < L; ++l) {
            e1Lane[l] = negInf;
            e2Lane[l] = negInf;
            i64 lo = 1, hi = static_cast<i64>(a.n[l]);
            if (a.band[l] >= 0) {
                lo = std::max<i64>(1, static_cast<i64>(i) - a.band[l]);
                hi = std::min<i64>(hi, static_cast<i64>(i) + a.band[l]);
            }
            jLoA[l] = static_cast<Score>(lo);
            jHiA[l] = static_cast<Score>(hi);
            if (a.n[l] == 0)
                continue; // unused lane: hi already < lo
            if (hi >= lo) {
                jMin = std::min(jMin, static_cast<std::size_t>(lo));
                jMax = std::max(jMax, static_cast<std::size_t>(hi));
            }
            // Maintain F across the banded region; reset off-band
            // columns (clamped, matching the scalar engines).
            if (a.band[l] >= 0 && lo > 1 &&
                lo - 1 <= static_cast<i64>(a.n[l])) {
                f1[static_cast<std::size_t>(lo - 1) * L + l] = negInf;
                f2[static_cast<std::size_t>(lo - 1) * L + l] = negInf;
            }
        }
        std::fill(hc, hc + rowElems, negInf);

        u8 *tbRow = tb + i * (a.nMax + 1) * L;

        // Column 0: query-only gap (uniform across lanes — same i).
        {
            const Score h0 =
                static_cast<Score>(-sc.gapCost(static_cast<u32>(i)));
            const bool piece1 =
                sc.gapOpen1 + static_cast<i32>(i) * sc.gapExtend1 <=
                sc.gapOpen2 + static_cast<i32>(i) * sc.gapExtend2;
            u8 flags = piece1 ? kSrcF1 : kSrcF2;
            if (i > 1)
                flags |= piece1 ? kExtF1 : kExtF2;
            for (u32 l = 0; l < L; ++l) {
                hc[l] = h0;
                tbRow[l] = flags;
            }
        }

        const Score *__restrict__ qRow = queryCodes + (i - 1) * L;

        for (std::size_t j = jMin; j <= jMax; ++j) {
            const Score *__restrict__ tcj = targetCodes + (j - 1) * L;
            const Score *__restrict__ hcl = hc + (j - 1) * L;
            Score *__restrict__ hcj = hc + j * L;
            const Score *__restrict__ hpj = hp + j * L;
            const Score *__restrict__ hpd = hp + (j - 1) * L;
            Score *__restrict__ f1j = f1 + j * L;
            Score *__restrict__ f2j = f2 + j * L;
            u8 *__restrict__ tbj = tbRow + j * L;
            const Score jj = static_cast<Score>(j);

            fitStep<Score, L>(jj, oe1, oe2, ge1, ge2, match, mismatch,
                              qRow, tcj, hcl, hcj, hpj, hpd, f1j, f2j,
                              tbj, e1Lane, e2Lane, jLoA, jHiA);
        }
        std::swap(hp, hc);
    }
    return hp;
}

/**
 * Lanes of @p Score per sweep under @p b: util::simdDpLanes() counts
 * i16 lanes (16 per 256-bit, 32 per 512-bit register); i32 lanes fit
 * half as many.
 */
template <typename Score>
constexpr u32
laneWidth(util::SimdBackend b)
{
    return util::simdDpLanes(b) * sizeof(i16) / sizeof(Score);
}

static_assert(laneWidth<i16>(util::SimdBackend::Avx2) * sizeof(i16) == 32 &&
              laneWidth<i16>(util::SimdBackend::Avx512) * sizeof(i16) == 64);

#if GPX_SIMD_MULTIVERSION
template <typename Score, u32 L>
__attribute__((target("avx2"))) const Score *
fitFillAvx2(const FillArgs<Score, L> &a)
{
    return fitFillLanes<Score, L>(a);
}

template <typename Score, u32 L>
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) const Score *
fitFillAvx512(const FillArgs<Score, L> &a)
{
    return fitFillLanes<Score, L>(a);
}
#else
template <typename Score, u32 L>
const Score *
fitFillAvx2(const FillArgs<Score, L> &a)
{
    return fitFillLanes<Score, L>(a);
}

template <typename Score, u32 L>
const Score *
fitFillAvx512(const FillArgs<Score, L> &a)
{
    return fitFillLanes<Score, L>(a);
}
#endif

/** cellUpdates of one task, exactly as the scalar engines count them. */
u64
countCells(std::size_t m, std::size_t n, i64 band)
{
    u64 cells = 0;
    for (std::size_t i = 1; i <= m; ++i) {
        i64 lo = 1, hi = static_cast<i64>(n);
        if (band >= 0) {
            lo = std::max<i64>(1, static_cast<i64>(i) - band);
            hi = std::min<i64>(hi, static_cast<i64>(i) + band);
        }
        if (hi >= lo)
            cells += static_cast<u64>(hi - lo + 1);
    }
    return cells;
}

/** The lane-major row buffers @p scr keeps for @p Score lanes. */
template <typename Score>
LaneRows<Score> &
laneRows(BatchAlignScratch &scr)
{
    if constexpr (sizeof(Score) == sizeof(i16))
        return scr.rows16;
    else
        return scr.rows32;
}

/**
 * Run one lane group of @p count (<= L) tasks with uniform query
 * length and widest target @p nMax through the interleaved engine in
 * @p Score lanes (i16 only inside the fitsI16Lanes() bound) and extract
 * per-lane results.
 */
template <typename Score, u32 L>
void
fitGroup(const FitTask *tasks, u32 count, std::size_t nMax,
         const ScoringScheme &scheme, BatchAlignScratch &scr,
         AlignResult *out)
{
    FillArgs<Score, L> a;
    a.m = tasks[0].query.size();
    a.nMax = nMax;
    a.sc = &scheme;
    for (u32 l = 0; l < L; ++l) {
        a.n[l] = 0;
        a.band[l] = -1;
    }
    for (u32 l = 0; l < count; ++l) {
        a.n[l] = tasks[l].target.size();
        a.band[l] = tasks[l].band;
    }
    gpx_assert((a.m + 1) * (a.nMax + 1) <= (1ull << 27),
               "DP matrix too large; use banding or smaller windows");

    // No zero-fill: the fill writes every cell the traceback walk can
    // reach (row 0 up to each lane's n, column 0, and every column of
    // the sweep's [jMin, jMax] span), and stale operands of unused
    // lanes or of columns past a lane's n only feed discarded results.
    const std::size_t rowElems = (a.nMax + 1) * L;
    LaneRows<Score> &rows = laneRows<Score>(scr);
    scr.traceback.resize((a.m + 1) * (a.nMax + 1) * L);
    rows.queryCodes.resize(a.m * L);
    rows.targetCodes.resize(a.nMax * L);
    rows.hPrev.resize(rowElems);
    rows.hCur.resize(rowElems);
    rows.f1.resize(rowElems);
    rows.f2.resize(rowElems);
    scr.decodeTmp.resize(std::max(a.m, a.nMax));

    // Gather decoded operands into the lane-major stores.
    for (u32 l = 0; l < count; ++l) {
        tasks[l].query.decodeTo(scr.decodeTmp.data());
        for (std::size_t i = 0; i < a.m; ++i)
            rows.queryCodes[i * L + l] = scr.decodeTmp[i];
        tasks[l].target.decodeTo(scr.decodeTmp.data());
        for (std::size_t j = 0; j < a.n[l]; ++j)
            rows.targetCodes[j * L + l] = scr.decodeTmp[j];
    }

    a.queryCodes = rows.queryCodes.data();
    a.targetCodes = rows.targetCodes.data();
    a.hPrev = rows.hPrev.data();
    a.hCur = rows.hCur.data();
    a.f1 = rows.f1.data();
    a.f2 = rows.f2.data();
    a.tb = scr.traceback.data();

    const Score *rowM;
    if constexpr (L == laneWidth<Score>(util::SimdBackend::Avx512))
        rowM = fitFillAvx512(a);
    else
        rowM = fitFillAvx2(a);

    // Per-lane end-cell scan + traceback (identical to the scalar Fit
    // epilogue; the traceback walker reads one lane of the lane-major
    // matrix through a strided accessor). i32 lanes apply the scalar
    // engine's own test; in i16 lanes values derived from −∞ stay at
    // or below kLaneNegInf + m * match (see fitsI16Lanes()).
    const i32 negInfCeil =
        sizeof(Score) == sizeof(i32)
            ? kNegInf / 2
            : kLaneNegInf<Score> + static_cast<i32>(a.m) * scheme.match;
    const u8 *tb = scr.traceback.data();
    for (u32 l = 0; l < count; ++l) {
        AlignResult &res = out[l];
        res = AlignResult{};
        res.cellUpdates = countCells(a.m, a.n[l], a.band[l]);

        Score best = kLaneNegInf<Score>;
        std::size_t bestJ = 0;
        for (std::size_t j = 0; j <= a.n[l]; ++j) {
            if (rowM[j * L + l] > best) {
                best = rowM[j * L + l];
                bestJ = j;
            }
        }
        if (best <= negInfCeil)
            continue; // band excluded every complete path

        EngineResult er;
        tracebackPath(
            er,
            [&](std::size_t ti, std::size_t tj) {
                return tb[(ti * (nMax + 1) + tj) * L + l];
            },
            Mode::Fit, best, a.m, bestJ);
        res.valid = er.valid;
        res.score = er.score;
        res.cigar = std::move(er.cigar);
        res.targetStart = er.targetStart;
        res.targetEnd = er.targetEnd;
    }
}

} // namespace

LaneFill
fitAlignBatch(const FitTask *tasks, std::size_t count,
              const ScoringScheme &scheme, BatchAlignScratch &scratch,
              AlignResult *out)
{
    const util::SimdBackend backend = util::activeSimdBackend();
    const u32 lanes = laneWidth<i16>(backend);
    LaneFill fill;
    std::size_t i = 0;
    while (i < count) {
        const std::size_t m = tasks[i].query.size();
        if (m == 0 || tasks[i].target.size() == 0) {
            // Degenerate task: the scalar engine reports invalid with
            // zero cells; keep that contract without burning a lane.
            out[i] = AlignResult{};
            ++i;
            continue;
        }
        std::size_t g = i + 1;
        std::size_t nMax = tasks[i].target.size();
        while (g < count && g - i < lanes &&
               tasks[g].query.size() == m && tasks[g].target.size() != 0) {
            nMax = std::max(nMax, tasks[g].target.size());
            ++g;
        }
        if (backend == util::SimdBackend::Scalar) {
            // The scalar engine, one lane per task.
            for (; i < g; ++i) {
                out[i] = fitAlign(tasks[i].query, tasks[i].target, scheme,
                                  tasks[i].band, scratch.scalar);
                ++fill.laneGroups;
                ++fill.lanesUsed;
            }
            continue;
        }
        const bool avx512 = backend == util::SimdBackend::Avx512;
        const bool narrow = fitsI16Lanes(m, nMax, scheme);
        if (!narrow) {
            // Outside the i16 bound: the group's first half runs in
            // i32 lanes; the rest regroups on the next pass.
            g = std::min<std::size_t>(g, i + laneWidth<i32>(backend));
            nMax = 0;
            for (std::size_t k = i; k < g; ++k)
                nMax = std::max(nMax, tasks[k].target.size());
        }
        const u32 cnt = static_cast<u32>(g - i);
        if (!narrow) {
            if (avx512)
                fitGroup<i32, laneWidth<i32>(util::SimdBackend::Avx512)>(
                    tasks + i, cnt, nMax, scheme, scratch, out + i);
            else
                fitGroup<i32, laneWidth<i32>(util::SimdBackend::Avx2)>(
                    tasks + i, cnt, nMax, scheme, scratch, out + i);
        } else if (avx512) {
            fitGroup<i16, laneWidth<i16>(util::SimdBackend::Avx512)>(
                tasks + i, cnt, nMax, scheme, scratch, out + i);
        } else {
            fitGroup<i16, laneWidth<i16>(util::SimdBackend::Avx2)>(
                tasks + i, cnt, nMax, scheme, scratch, out + i);
        }
        ++fill.laneGroups;
        fill.lanesUsed += cnt;
        i = g;
    }
    return fill;
}

} // namespace align
} // namespace gpx
