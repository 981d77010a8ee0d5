/**
 * @file
 * The seed fitting-alignment engine, the oracle of align::fitAlign()
 * and align::fitAlignBatch(): the same recurrence, boundary handling
 * and traceback bytes as the production engines, with a branchy inner
 * loop and one heap-allocated working set per call.
 */

#include <algorithm>
#include <vector>

#include "align/affine_internal.hh"
#include "oracles/oracles.hh"
#include "util/logging.hh"

namespace gpx {
namespace align {

using genomics::DnaView;
using genomics::ScoringScheme;

namespace {

using namespace affine_detail;

/**
 * The seed DP engine: computes H/E1/E2/F1/F2 row by row with a full
 * traceback matrix.
 */
EngineResult
runReference(const DnaView &query, const DnaView &target,
             const ScoringScheme &sc, Mode mode, i32 band)
{
    const std::size_t m = query.size();
    const std::size_t n = target.size();
    EngineResult out;
    if (m == 0 || n == 0)
        return out;

    gpx_assert((m + 1) * (n + 1) <= (1ull << 27),
               "DP matrix too large; use banding or smaller windows");

    std::vector<u8> tb((m + 1) * (n + 1), 0);
    auto tbAt = [&](std::size_t i, std::size_t j) -> u8 & {
        return tb[i * (n + 1) + j];
    };

    // Decode both operands once (32 bases per word load) so the O(n*m)
    // inner loop compares plain bytes instead of re-extracting packed
    // 2-bit codes.
    std::vector<u8> qc(m), tc(n);
    query.decodeTo(qc.data());
    target.decodeTo(tc.data());

    std::vector<i32> hPrev(n + 1, kNegInf), hCur(n + 1, kNegInf);
    std::vector<i32> f1(n + 1, kNegInf), f2(n + 1, kNegInf);

    const i32 oe1 = sc.gapOpen1 + sc.gapExtend1;
    const i32 oe2 = sc.gapOpen2 + sc.gapExtend2;

    // Row 0.
    hPrev[0] = 0;
    tbAt(0, 0) = kSrcStart;
    for (std::size_t j = 1; j <= n; ++j) {
        if (mode == Mode::Global) {
            hPrev[j] = -sc.gapCost(static_cast<u32>(j));
            // Record which gap piece is cheaper so traceback extends it.
            bool piece1 = sc.gapOpen1 + static_cast<i32>(j) * sc.gapExtend1 <=
                          sc.gapOpen2 + static_cast<i32>(j) * sc.gapExtend2;
            u8 flags = piece1 ? kSrcE1 : kSrcE2;
            if (j > 1)
                flags |= piece1 ? kExtE1 : kExtE2;
            tbAt(0, j) = flags;
        } else {
            hPrev[j] = 0; // free target start
            tbAt(0, j) = kSrcStart;
        }
    }

    i32 best = kNegInf;
    std::size_t bestI = 0, bestJ = 0;

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
        std::fill(hCur.begin(), hCur.end(), kNegInf);

        // Column 0: query-only gap (insertion).
        if (mode == Mode::Local) {
            hCur[0] = 0;
            tbAt(i, 0) = kSrcStart;
        } else {
            hCur[0] = -sc.gapCost(static_cast<u32>(i));
            bool piece1 = sc.gapOpen1 + static_cast<i32>(i) * sc.gapExtend1 <=
                          sc.gapOpen2 + static_cast<i32>(i) * sc.gapExtend2;
            u8 flags = piece1 ? kSrcF1 : kSrcF2;
            if (i > 1)
                flags |= piece1 ? kExtF1 : kExtF2;
            tbAt(i, 0) = flags;
        }
        // Maintain F across the banded region; reset off-band columns.
        // (jLo can pass the row's end when the band excludes the whole
        // row — query much longer than target — so clamp: the seed
        // code wrote one past the buffer there, found by the oracle
        // fuzz test.)
        if (band >= 0 && jLo > 1 && jLo - 1 <= n) {
            f1[jLo - 1] = kNegInf;
            f2[jLo - 1] = kNegInf;
        }

        for (std::size_t j = jLo; j <= jHi; ++j) {
            ++out.cellUpdates;
            u8 flags = 0;

            // E: gap consuming target (deletion from the read's view).
            i32 e1Open = hCur[j - 1] - oe1;
            i32 e1Ext = e1 - sc.gapExtend1;
            if (e1Ext > e1Open) {
                e1 = e1Ext;
                flags |= kExtE1;
            } else {
                e1 = e1Open;
            }
            i32 e2Open = hCur[j - 1] - oe2;
            i32 e2Ext = e2 - sc.gapExtend2;
            if (e2Ext > e2Open) {
                e2 = e2Ext;
                flags |= kExtE2;
            } else {
                e2 = e2Open;
            }

            // F: gap consuming query (insertion).
            i32 f1Open = hPrev[j] - oe1;
            i32 f1Ext = f1[j] - sc.gapExtend1;
            if (f1Ext > f1Open) {
                f1[j] = f1Ext;
                flags |= kExtF1;
            } else {
                f1[j] = f1Open;
            }
            i32 f2Open = hPrev[j] - oe2;
            i32 f2Ext = f2[j] - sc.gapExtend2;
            if (f2Ext > f2Open) {
                f2[j] = f2Ext;
                flags |= kExtF2;
            } else {
                f2[j] = f2Open;
            }

            i32 sub = qc[i - 1] == tc[j - 1] ? sc.match : -sc.mismatch;
            i32 diag = hPrev[j - 1] == kNegInf ? kNegInf : hPrev[j - 1] + sub;

            i32 h = diag;
            u8 src = kSrcDiag;
            if (e1 > h) { h = e1; src = kSrcE1; }
            if (e2 > h) { h = e2; src = kSrcE2; }
            if (f1[j] > h) { h = f1[j]; src = kSrcF1; }
            if (f2[j] > h) { h = f2[j]; src = kSrcF2; }
            if (mode == Mode::Local && h < 0) {
                h = 0;
                src = kSrcStart;
            }
            hCur[j] = h;
            tbAt(i, j) = static_cast<u8>(flags | src);

            if (mode == Mode::Local && h > best) {
                best = h;
                bestI = i;
                bestJ = j;
            }
        }
        std::swap(hPrev, hCur);
    }

    // Pick the end cell.
    if (mode == Mode::Global) {
        best = hPrev[n];
        bestI = m;
        bestJ = n;
    } else if (mode == Mode::Fit) {
        best = kNegInf;
        bestI = m;
        for (std::size_t j = 0; j <= n; ++j) {
            if (hPrev[j] > best) {
                best = hPrev[j];
                bestJ = j;
            }
        }
    }
    if (best <= kNegInf / 2)
        return out; // band excluded every complete path

    tracebackPath(
        out,
        [&](std::size_t ti, std::size_t tj) { return tb[ti * (n + 1) + tj]; },
        mode, best, bestI, bestJ);
    return out;
}

} // namespace

AlignResult
fitAlignRef(const DnaView &query, const DnaView &target,
            const ScoringScheme &scheme, i32 band)
{
    EngineResult r = runReference(query, target, scheme, Mode::Fit, band);
    AlignResult out;
    out.valid = r.valid;
    out.score = r.score;
    out.cigar = std::move(r.cigar);
    out.targetStart = r.targetStart;
    out.targetEnd = r.targetEnd;
    out.cellUpdates = r.cellUpdates;
    return out;
}

} // namespace align
} // namespace gpx
