/**
 * @file
 * Internals shared by the scalar affine engines (affine.cc) and the
 * inter-sequence interleaved batch engine (affine_simd.cc): the
 * traceback byte layout, the engine-facing result struct and the
 * traceback walker. The walker is templated on a cell accessor so the
 * scalar engines hand it a flat (m+1)x(n+1) matrix while the batch
 * engine hands it one lane of a lane-major matrix — the bytes it reads
 * are identical either way, which is what keeps the batch results
 * bit-identical to the oracles.
 *
 * Not public API; include only from the align sources and the DP
 * oracle (tests/oracles/affine_ref.cc).
 */

#ifndef GPX_ALIGN_AFFINE_INTERNAL_HH
#define GPX_ALIGN_AFFINE_INTERNAL_HH

#include <limits>
#include <utility>

#include "genomics/cigar.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace gpx {
namespace align {
namespace affine_detail {

constexpr i32 kNegInf = std::numeric_limits<i32>::min() / 4;

/** Alignment boundary conditions. */
enum class Mode { Global, Fit, Local };

/** Traceback byte layout. */
constexpr u8 kSrcMask = 0x07;
constexpr u8 kSrcDiag = 0;
constexpr u8 kSrcE1 = 1;
constexpr u8 kSrcE2 = 2;
constexpr u8 kSrcF1 = 3;
constexpr u8 kSrcF2 = 4;
constexpr u8 kSrcStart = 5;
constexpr u8 kExtE1 = 0x08;
constexpr u8 kExtE2 = 0x10;
constexpr u8 kExtF1 = 0x20;
constexpr u8 kExtF2 = 0x40;

struct EngineResult
{
    bool valid = false;
    i32 score = 0;
    genomics::Cigar cigar;
    u64 queryStart = 0;
    u64 targetStart = 0;
    u64 targetEnd = 0;
    u64 cellUpdates = 0;
};

/**
 * Reconstruct the optimal path from the traceback matrix, shared by
 * every engine (their matrices are bit-identical; only the fill loop
 * and the matrix memory layout differ). @p tbAt maps (i, j) to the
 * traceback byte of that cell.
 */
template <typename TbAt>
void
tracebackPath(EngineResult &out, TbAt &&tbAt, Mode mode, i32 best,
              std::size_t bestI, std::size_t bestJ)
{
    genomics::Cigar rev;
    std::size_t i = bestI, j = bestJ;
    u8 state = 0; // 0 = H, 1 = E1, 2 = E2, 3 = F1, 4 = F2
    bool hitStart = false;
    while (!hitStart) {
        if (state == 0) {
            u8 cell = tbAt(i, j);
            switch (cell & kSrcMask) {
              case kSrcStart:
                hitStart = true;
                break;
              case kSrcDiag:
                rev.push(genomics::CigarOp::Match, 1);
                --i;
                --j;
                if (i == 0 && j == 0 && mode != Mode::Fit)
                    hitStart = true;
                if (mode == Mode::Fit && i == 0)
                    hitStart = true;
                if (mode == Mode::Local && (tbAt(i, j) & kSrcMask) ==
                        kSrcStart && i == 0)
                    hitStart = true;
                break;
              case kSrcE1: state = 1; break;
              case kSrcE2: state = 2; break;
              case kSrcF1: state = 3; break;
              case kSrcF2: state = 4; break;
            }
            if (mode == Mode::Fit && state == 0 && !hitStart && i == 0)
                hitStart = true;
        } else if (state == 1 || state == 2) {
            u8 cell = tbAt(i, j);
            rev.push(genomics::CigarOp::Deletion, 1);
            bool ext = cell & (state == 1 ? kExtE1 : kExtE2);
            --j;
            if (!ext)
                state = 0;
            if (j == 0 && state != 0)
                gpx_panic("affine traceback escaped matrix (E)");
        } else {
            u8 cell = tbAt(i, j);
            rev.push(genomics::CigarOp::Insertion, 1);
            bool ext = cell & (state == 3 ? kExtF1 : kExtF2);
            --i;
            if (!ext)
                state = 0;
            if (i == 0 && state != 0)
                gpx_panic("affine traceback escaped matrix (F)");
            if (mode == Mode::Fit && state == 0 && i == 0)
                hitStart = true;
        }
        if (mode == Mode::Global && i == 0 && j == 0)
            hitStart = true;
    }

    // Reverse the CIGAR.
    genomics::Cigar cigar;
    const auto &elems = rev.elems();
    for (auto it = elems.rbegin(); it != elems.rend(); ++it)
        cigar.push(it->op, it->len);

    out.valid = true;
    out.score = best;
    out.cigar = std::move(cigar);
    out.queryStart = i;
    out.targetStart = j;
    out.targetEnd = bestJ;
}

} // namespace affine_detail
} // namespace align
} // namespace gpx

#endif // GPX_ALIGN_AFFINE_INTERNAL_HH
