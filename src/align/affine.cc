#include "align/affine.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "align/affine_internal.hh"
#include "util/logging.hh"

namespace gpx {
namespace align {

using genomics::Cigar;
using genomics::CigarOp;
using genomics::DnaView;
using genomics::ScoringScheme;

namespace {

using namespace affine_detail;

/**
 * The production engine: the recurrence, boundary handling and
 * traceback matrix of the seed engine (tests/oracles/affine_ref.cc;
 * test_stages pins them equal), with a branchless inner loop (every
 * min/max and flag is a conditional move; DNA comparisons are
 * unpredictable, so per-cell branches cost a mispredict each) and the
 * whole working set in a caller-owned AlignScratch, so a driver's
 * thousandth alignment allocates nothing.
 */
template <Mode mode>
EngineResult
runBranchless(const DnaView &query, const DnaView &target,
              const ScoringScheme &sc, i32 band, AlignScratch &scr)
{
    const std::size_t m = query.size();
    const std::size_t n = target.size();
    EngineResult out;
    if (m == 0 || n == 0)
        return out;

    gpx_assert((m + 1) * (n + 1) <= (1ull << 27),
               "DP matrix too large; use banding or smaller windows");

    scr.traceback.assign((m + 1) * (n + 1), 0);
    scr.queryCodes.resize(m);
    scr.targetCodes.resize(n);
    query.decodeTo(scr.queryCodes.data());
    target.decodeTo(scr.targetCodes.data());
    scr.hPrev.assign(n + 1, kNegInf);
    scr.hCur.assign(n + 1, kNegInf);
    scr.f1.assign(n + 1, kNegInf);
    scr.f2.assign(n + 1, kNegInf);

    const i32 oe1 = sc.gapOpen1 + sc.gapExtend1;
    const i32 oe2 = sc.gapOpen2 + sc.gapExtend2;
    const i32 ge1 = sc.gapExtend1;
    const i32 ge2 = sc.gapExtend2;
    const i32 match = sc.match;
    const i32 mismatch = sc.mismatch;

    u8 *tb = scr.traceback.data();

    // Row 0 (identical to the reference).
    scr.hPrev[0] = 0;
    tb[0] = kSrcStart;
    for (std::size_t j = 1; j <= n; ++j) {
        if (mode == Mode::Global) {
            scr.hPrev[j] = -sc.gapCost(static_cast<u32>(j));
            bool piece1 = sc.gapOpen1 + static_cast<i32>(j) * ge1 <=
                          sc.gapOpen2 + static_cast<i32>(j) * ge2;
            u8 flags = piece1 ? kSrcE1 : kSrcE2;
            if (j > 1)
                flags |= piece1 ? kExtE1 : kExtE2;
            tb[j] = flags;
        } else {
            scr.hPrev[j] = 0; // free target start
            tb[j] = kSrcStart;
        }
    }

    i32 best = kNegInf;
    std::size_t bestI = 0, bestJ = 0;

    const u8 *qc = scr.queryCodes.data();
    const u8 *tc = scr.targetCodes.data();

    for (std::size_t i = 1; i <= m; ++i) {
        i32 e1 = kNegInf, e2 = kNegInf;
        std::size_t jLo = 1, jHi = n;
        if (band >= 0) {
            i64 lo = static_cast<i64>(i) - band;
            i64 hi = static_cast<i64>(i) + band;
            jLo = static_cast<std::size_t>(std::max<i64>(1, lo));
            jHi = static_cast<std::size_t>(
                std::min<i64>(static_cast<i64>(n), hi));
        }
        std::fill(scr.hCur.begin(), scr.hCur.end(), kNegInf);

        u8 *tbRow = tb + i * (n + 1);

        // Column 0: query-only gap (insertion).
        if (mode == Mode::Local) {
            scr.hCur[0] = 0;
            tbRow[0] = kSrcStart;
        } else {
            scr.hCur[0] = -sc.gapCost(static_cast<u32>(i));
            bool piece1 = sc.gapOpen1 + static_cast<i32>(i) * ge1 <=
                          sc.gapOpen2 + static_cast<i32>(i) * ge2;
            u8 flags = piece1 ? kSrcF1 : kSrcF2;
            if (i > 1)
                flags |= piece1 ? kExtF1 : kExtF2;
            tbRow[0] = flags;
        }
        // Maintain F across the banded region; reset off-band columns
        // (clamped: jLo passes the row's end when the band excludes the
        // whole row, a query much longer than its target).
        if (band >= 0 && jLo > 1 && jLo - 1 <= n) {
            scr.f1[jLo - 1] = kNegInf;
            scr.f2[jLo - 1] = kNegInf;
        }

        const i32 *hp = scr.hPrev.data();
        i32 *hc = scr.hCur.data();
        i32 *f1 = scr.f1.data();
        i32 *f2 = scr.f2.data();
        const u8 qi = qc[i - 1];

        for (std::size_t j = jLo; j <= jHi; ++j) {
            // E: gap consuming target (deletion from the read's view).
            const i32 hLeft = hc[j - 1];
            const i32 e1Open = hLeft - oe1;
            const i32 e1Ext = e1 - ge1;
            const bool x1 = e1Ext > e1Open;
            e1 = x1 ? e1Ext : e1Open;
            const i32 e2Open = hLeft - oe2;
            const i32 e2Ext = e2 - ge2;
            const bool x2 = e2Ext > e2Open;
            e2 = x2 ? e2Ext : e2Open;

            // F: gap consuming query (insertion).
            const i32 hUp = hp[j];
            const i32 f1Open = hUp - oe1;
            const i32 f1Ext = f1[j] - ge1;
            const bool x3 = f1Ext > f1Open;
            const i32 f1v = x3 ? f1Ext : f1Open;
            f1[j] = f1v;
            const i32 f2Open = hUp - oe2;
            const i32 f2Ext = f2[j] - ge2;
            const bool x4 = f2Ext > f2Open;
            const i32 f2v = x4 ? f2Ext : f2Open;
            f2[j] = f2v;

            const i32 hDiag = hp[j - 1];
            const i32 sub = qi == tc[j - 1] ? match : -mismatch;
            const i32 diag = hDiag == kNegInf ? kNegInf : hDiag + sub;

            i32 h = diag;
            u8 src = kSrcDiag;
            src = e1 > h ? kSrcE1 : src;
            h = e1 > h ? e1 : h;
            src = e2 > h ? kSrcE2 : src;
            h = e2 > h ? e2 : h;
            src = f1v > h ? kSrcF1 : src;
            h = f1v > h ? f1v : h;
            src = f2v > h ? kSrcF2 : src;
            h = f2v > h ? f2v : h;
            if constexpr (mode == Mode::Local) {
                src = h < 0 ? kSrcStart : src;
                h = h < 0 ? 0 : h;
            }
            hc[j] = h;
            tbRow[j] = static_cast<u8>(
                src | (static_cast<u8>(x1) << 3) |
                (static_cast<u8>(x2) << 4) | (static_cast<u8>(x3) << 5) |
                (static_cast<u8>(x4) << 6));

            if constexpr (mode == Mode::Local) {
                if (h > best) {
                    best = h;
                    bestI = i;
                    bestJ = j;
                }
            }
        }
        if (jHi >= jLo)
            out.cellUpdates += jHi - jLo + 1;
        std::swap(scr.hPrev, scr.hCur);
    }

    // Pick the end cell.
    if (mode == Mode::Global) {
        best = scr.hPrev[n];
        bestI = m;
        bestJ = n;
    } else if (mode == Mode::Fit) {
        best = kNegInf;
        bestI = m;
        for (std::size_t j = 0; j <= n; ++j) {
            if (scr.hPrev[j] > best) {
                best = scr.hPrev[j];
                bestJ = j;
            }
        }
    }
    if (best <= kNegInf / 2)
        return out; // band excluded every complete path

    const u8 *tbc = scr.traceback.data();
    tracebackPath(
        out,
        [&](std::size_t ti, std::size_t tj) { return tbc[ti * (n + 1) + tj]; },
        mode, best, bestI, bestJ);
    return out;
}

} // namespace

AlignResult
fitAlign(const DnaView &query, const DnaView &target,
         const ScoringScheme &scheme, i32 band)
{
    AlignScratch scratch;
    return fitAlign(query, target, scheme, band, scratch);
}

AlignResult
fitAlign(const DnaView &query, const DnaView &target,
         const ScoringScheme &scheme, i32 band, AlignScratch &scratch)
{
    EngineResult r =
        runBranchless<Mode::Fit>(query, target, scheme, band, scratch);
    AlignResult out;
    out.valid = r.valid;
    out.score = r.score;
    out.cigar = std::move(r.cigar);
    out.targetStart = r.targetStart;
    out.targetEnd = r.targetEnd;
    out.cellUpdates = r.cellUpdates;
    return out;
}

AlignResult
globalAlign(const DnaView &query, const DnaView &target,
            const ScoringScheme &scheme, i32 band)
{
    AlignScratch scratch;
    EngineResult r = runBranchless<Mode::Global>(query, target, scheme,
                                                 band, scratch);
    AlignResult out;
    out.valid = r.valid;
    out.score = r.score;
    out.cigar = std::move(r.cigar);
    out.targetStart = r.targetStart;
    out.targetEnd = r.targetEnd;
    out.cellUpdates = r.cellUpdates;
    return out;
}

LocalResult
localAlign(const DnaView &query, const DnaView &target,
           const ScoringScheme &scheme)
{
    AlignScratch scratch;
    EngineResult r =
        runBranchless<Mode::Local>(query, target, scheme, -1, scratch);
    LocalResult out;
    out.valid = r.valid;
    out.score = r.score;
    out.cigar = std::move(r.cigar);
    out.queryStart = r.queryStart;
    out.targetStart = r.targetStart;
    out.cellUpdates = r.cellUpdates;
    return out;
}

} // namespace align
} // namespace gpx
