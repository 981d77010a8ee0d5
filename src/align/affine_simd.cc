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
 * i32 selects so the compiler's vectorizer turns it into compare/blend
 * vectors under the function-level target("avx2")/target("avx512...")
 * attributes — no global -m flags, no intrinsics, one template
 * instantiated per ISA (util/simd.hh picks the backend at runtime).
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

/** Per-group fill-loop inputs (everything the hot loop touches). */
template <u32 L>
struct FillArgs
{
    std::size_t m = 0;    ///< uniform query length of the group
    std::size_t nMax = 0; ///< widest target in the group
    std::size_t n[L];     ///< per-lane target length (0 = unused lane)
    i64 band[L];          ///< per-lane band half-width (<0 = unbanded)
    const ScoringScheme *sc = nullptr;
    const i32 *queryCodes = nullptr;  ///< lane-major [(i-1)*L + l]
    const i32 *targetCodes = nullptr; ///< lane-major [(j-1)*L + l]
    i32 *hPrev = nullptr;             ///< lane-major rows, (nMax+1)*L
    i32 *hCur = nullptr;
    i32 *f1 = nullptr;
    i32 *f2 = nullptr;
    u8 *tb = nullptr; ///< lane-major matrix, (m+1)*(nMax+1)*L
};

/**
 * One band column of the interleaved sweep: update the L lanes of DP
 * cell (i, j). Factored out so the pointers are restrict-qualified
 * function parameters — GCC only gives restrict full disambiguation
 * force on parameters, and without it the lane loop exceeds the
 * vectorizer's runtime alias-check budget and stays scalar.
 */
template <u32 L>
[[gnu::always_inline]] inline void
fitStep(i32 jj, i32 oe1, i32 oe2, i32 ge1, i32 ge2, i32 match,
        i32 mismatch, const i32 *__restrict__ qRow,
        const i32 *__restrict__ tcj, const i32 *__restrict__ hcl,
        i32 *__restrict__ hcj, const i32 *__restrict__ hpj,
        const i32 *__restrict__ hpd, i32 *__restrict__ f1j,
        i32 *__restrict__ f2j, u8 *__restrict__ tbj,
        i32 *__restrict__ e1Lane, i32 *__restrict__ e2Lane,
        const i32 *__restrict__ jLoA, const i32 *__restrict__ jHiA)
{
    i32 flagsOut[L];
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
        const i32 hLeft = hcl[l];
        const i32 e1Open = hLeft - oe1;
        const i32 e1Ext = e1Lane[l] - ge1;
        const bool x1 = e1Ext > e1Open;
        const i32 e1v = x1 ? e1Ext : e1Open;
        const i32 e2Open = hLeft - oe2;
        const i32 e2Ext = e2Lane[l] - ge2;
        const bool x2 = e2Ext > e2Open;
        const i32 e2v = x2 ? e2Ext : e2Open;

        // F: gap consuming query (insertion).
        const i32 hUp = hpj[l];
        const i32 f1Open = hUp - oe1;
        const i32 f1Ext = f1j[l] - ge1;
        const bool x3 = f1Ext > f1Open;
        const i32 f1v = x3 ? f1Ext : f1Open;
        const i32 f2Open = hUp - oe2;
        const i32 f2Ext = f2j[l] - ge2;
        const bool x4 = f2Ext > f2Open;
        const i32 f2v = x4 ? f2Ext : f2Open;

        const i32 hDiag = hpd[l];
        const i32 sub = qRow[l] == tcj[l] ? match : -mismatch;
        const i32 diag = hDiag == kNegInf ? kNegInf : hDiag + sub;

        i32 h = diag;
        i32 src = kSrcDiag;
        src = e1v > h ? kSrcE1 : src;
        h = e1v > h ? e1v : h;
        src = e2v > h ? kSrcE2 : src;
        h = e2v > h ? e2v : h;
        src = f1v > h ? kSrcF1 : src;
        h = f1v > h ? f1v : h;
        src = f2v > h ? kSrcF2 : src;
        h = f2v > h ? f2v : h;

        const i32 flags = src | (static_cast<i32>(x1) << 3) |
                          (static_cast<i32>(x2) << 4) |
                          (static_cast<i32>(x3) << 5) |
                          (static_cast<i32>(x4) << 6);

        e1Lane[l] = act ? e1v : e1Lane[l];
        e2Lane[l] = act ? e2v : e2Lane[l];
        f1j[l] = act ? f1v : f1j[l];
        f2j[l] = act ? f2v : f2j[l];
        hcj[l] = act ? h : hcj[l];
        flagsOut[l] = act ? flags : 0;
    }
    // Narrow the flag lane to its traceback bytes in a second loop:
    // a u8 store inside the i32 loop above defeats the vectorizer
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
template <u32 L>
[[gnu::always_inline]] inline const i32 *
fitFillLanes(const FillArgs<L> &a)
{
    const ScoringScheme &sc = *a.sc;
    const i32 oe1 = sc.gapOpen1 + sc.gapExtend1;
    const i32 oe2 = sc.gapOpen2 + sc.gapExtend2;
    const i32 ge1 = sc.gapExtend1;
    const i32 ge2 = sc.gapExtend2;
    const i32 match = sc.match;
    const i32 mismatch = sc.mismatch;
    const std::size_t rowElems = (a.nMax + 1) * L;

    i32 *__restrict__ hp = a.hPrev;
    i32 *__restrict__ hc = a.hCur;
    i32 *__restrict__ f1 = a.f1;
    i32 *__restrict__ f2 = a.f2;
    u8 *__restrict__ tb = a.tb;
    const i32 *__restrict__ queryCodes = a.queryCodes;
    const i32 *__restrict__ targetCodes = a.targetCodes;

    // Row 0 (Fit): free target start up to each lane's n.
    std::fill(hp, hp + rowElems, kNegInf);
    std::fill(hc, hc + rowElems, kNegInf);
    std::fill(f1, f1 + rowElems, kNegInf);
    std::fill(f2, f2 + rowElems, kNegInf);
    for (u32 l = 0; l < L; ++l) {
        for (std::size_t j = 0; j <= a.n[l]; ++j) {
            hp[j * L + l] = 0;
            tb[j * L + l] = kSrcStart;
        }
    }

    alignas(64) i32 e1Lane[L];
    alignas(64) i32 e2Lane[L];
    alignas(64) i32 jLoA[L];
    alignas(64) i32 jHiA[L];

    for (std::size_t i = 1; i <= a.m; ++i) {
        std::size_t jMin = a.nMax + 1, jMax = 0;
        for (u32 l = 0; l < L; ++l) {
            e1Lane[l] = kNegInf;
            e2Lane[l] = kNegInf;
            i64 lo = 1, hi = static_cast<i64>(a.n[l]);
            if (a.band[l] >= 0) {
                lo = std::max<i64>(1, static_cast<i64>(i) - a.band[l]);
                hi = std::min<i64>(hi, static_cast<i64>(i) + a.band[l]);
            }
            jLoA[l] = static_cast<i32>(lo);
            jHiA[l] = static_cast<i32>(hi);
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
                f1[static_cast<std::size_t>(lo - 1) * L + l] = kNegInf;
                f2[static_cast<std::size_t>(lo - 1) * L + l] = kNegInf;
            }
        }
        std::fill(hc, hc + rowElems, kNegInf);

        u8 *tbRow = tb + i * (a.nMax + 1) * L;

        // Column 0: query-only gap (uniform across lanes — same i).
        {
            const i32 h0 = -sc.gapCost(static_cast<u32>(i));
            const bool piece1 =
                sc.gapOpen1 + static_cast<i32>(i) * ge1 <=
                sc.gapOpen2 + static_cast<i32>(i) * ge2;
            u8 flags = piece1 ? kSrcF1 : kSrcF2;
            if (i > 1)
                flags |= piece1 ? kExtF1 : kExtF2;
            for (u32 l = 0; l < L; ++l) {
                hc[l] = h0;
                tbRow[l] = flags;
            }
        }

        const i32 *__restrict__ qRow = queryCodes + (i - 1) * L;

        for (std::size_t j = jMin; j <= jMax; ++j) {
            const i32 *__restrict__ tcj = targetCodes + (j - 1) * L;
            const i32 *__restrict__ hcl = hc + (j - 1) * L;
            i32 *__restrict__ hcj = hc + j * L;
            const i32 *__restrict__ hpj = hp + j * L;
            const i32 *__restrict__ hpd = hp + (j - 1) * L;
            i32 *__restrict__ f1j = f1 + j * L;
            i32 *__restrict__ f2j = f2 + j * L;
            u8 *__restrict__ tbj = tbRow + j * L;
            const i32 jj = static_cast<i32>(j);

            fitStep<L>(jj, oe1, oe2, ge1, ge2, match, mismatch, qRow,
                       tcj, hcl, hcj, hpj, hpd, f1j, f2j, tbj, e1Lane,
                       e2Lane, jLoA, jHiA);
        }
        std::swap(hp, hc);
    }
    return hp;
}

#if GPX_SIMD_MULTIVERSION
__attribute__((target("avx2"))) const i32 *
fitFillAvx2(const FillArgs<8> &a)
{
    return fitFillLanes<8>(a);
}

__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) const i32 *
fitFillAvx512(const FillArgs<16> &a)
{
    return fitFillLanes<16>(a);
}
#else
const i32 *
fitFillAvx2(const FillArgs<8> &a)
{
    return fitFillLanes<8>(a);
}

const i32 *
fitFillAvx512(const FillArgs<16> &a)
{
    return fitFillLanes<16>(a);
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

/**
 * Run one lane group of @p count (<= L) tasks with uniform query
 * length through the interleaved engine and extract per-lane results.
 */
template <u32 L>
void
fitGroup(const FitTask *tasks, u32 count, const ScoringScheme &scheme,
         BatchAlignScratch &scr, AlignResult *out)
{
    FillArgs<L> a;
    a.m = tasks[0].query.size();
    a.sc = &scheme;
    for (u32 l = 0; l < L; ++l) {
        a.n[l] = 0;
        a.band[l] = -1;
    }
    for (u32 l = 0; l < count; ++l) {
        a.n[l] = tasks[l].target.size();
        a.band[l] = tasks[l].band;
        a.nMax = std::max(a.nMax, a.n[l]);
    }
    gpx_assert((a.m + 1) * (a.nMax + 1) <= (1ull << 27),
               "DP matrix too large; use banding or smaller windows");

    const std::size_t rowElems = (a.nMax + 1) * L;
    scr.traceback.assign((a.m + 1) * (a.nMax + 1) * L, 0);
    scr.queryCodes.assign(a.m * L, 0);
    scr.targetCodes.assign(a.nMax * L, 0);
    scr.hPrev.resize(rowElems);
    scr.hCur.resize(rowElems);
    scr.f1.resize(rowElems);
    scr.f2.resize(rowElems);
    scr.decodeTmp.resize(std::max(a.m, a.nMax));

    // Gather decoded operands into the lane-major stores.
    for (u32 l = 0; l < count; ++l) {
        tasks[l].query.decodeTo(scr.decodeTmp.data());
        for (std::size_t i = 0; i < a.m; ++i)
            scr.queryCodes[i * L + l] = scr.decodeTmp[i];
        tasks[l].target.decodeTo(scr.decodeTmp.data());
        for (std::size_t j = 0; j < a.n[l]; ++j)
            scr.targetCodes[j * L + l] = scr.decodeTmp[j];
    }

    a.queryCodes = scr.queryCodes.data();
    a.targetCodes = scr.targetCodes.data();
    a.hPrev = scr.hPrev.data();
    a.hCur = scr.hCur.data();
    a.f1 = scr.f1.data();
    a.f2 = scr.f2.data();
    a.tb = scr.traceback.data();

    const i32 *rowM;
    if constexpr (L == 16)
        rowM = fitFillAvx512(a);
    else
        rowM = fitFillAvx2(a);

    // Per-lane end-cell scan + traceback (identical to the scalar Fit
    // epilogue; the traceback walker reads one lane of the lane-major
    // matrix through a strided accessor).
    const u8 *tb = scr.traceback.data();
    const std::size_t nMax = a.nMax;
    for (u32 l = 0; l < count; ++l) {
        AlignResult &res = out[l];
        res = AlignResult{};
        res.cellUpdates = countCells(a.m, a.n[l], a.band[l]);

        i32 best = kNegInf;
        std::size_t bestJ = 0;
        for (std::size_t j = 0; j <= a.n[l]; ++j) {
            if (rowM[j * L + l] > best) {
                best = rowM[j * L + l];
                bestJ = j;
            }
        }
        if (best <= kNegInf / 2)
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
        if (backend == util::SimdBackend::Scalar) {
            out[i] = fitAlign(tasks[i].query, tasks[i].target, scheme,
                              tasks[i].band, scratch.scalar);
            ++fill.laneGroups;
            ++fill.lanesUsed;
            ++i;
            continue;
        }
        const u32 lanes = util::simdDpLanes(backend);
        std::size_t g = i + 1;
        while (g < count && g - i < lanes &&
               tasks[g].query.size() == m && tasks[g].target.size() != 0)
            ++g;
        const u32 cnt = static_cast<u32>(g - i);
        if (backend == util::SimdBackend::Avx512)
            fitGroup<16>(tasks + i, cnt, scheme, scratch, out + i);
        else
            fitGroup<8>(tasks + i, cnt, scheme, scratch, out + i);
        ++fill.laneGroups;
        fill.lanesUsed += cnt;
        i = g;
    }
    return fill;
}

} // namespace align
} // namespace gpx
