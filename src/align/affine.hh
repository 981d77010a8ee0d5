/**
 * @file
 * Two-piece affine-gap dynamic-programming alignment with full traceback.
 *
 * This is the repository's "expensive DP" substrate: it plays the role of
 * Minimap2's ksw2 aligner in the software baseline and of the GenDP
 * accelerator's Banded Smith-Waterman in the fallback path (paper §7.4).
 * Gap cost follows the two-piece model min(q1 + k*e1, q2 + k*e2) so DP
 * scores are directly comparable with the Light Alignment scores.
 */

#ifndef GPX_ALIGN_AFFINE_HH
#define GPX_ALIGN_AFFINE_HH

#include <vector>

#include "genomics/cigar.hh"
#include "genomics/scoring.hh"
#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace align {

/**
 * Reusable DP working set: traceback matrix, score rows and decoded
 * operands. One alignment allocated all of these per call in the seed
 * implementation; a driver-held scratch amortizes them across every
 * alignment of a batch (the fallback path runs thousands per chunk).
 */
struct AlignScratch
{
    std::vector<u8> traceback;
    std::vector<u8> queryCodes;
    std::vector<u8> targetCodes;
    std::vector<i32> hPrev;
    std::vector<i32> hCur;
    std::vector<i32> f1;
    std::vector<i32> f2;
};

/** Result of a DP alignment. */
struct AlignResult
{
    bool valid = false;
    i32 score = 0;
    genomics::Cigar cigar;
    /** First target base consumed by the alignment. */
    u64 targetStart = 0;
    /** One past the last target base consumed. */
    u64 targetEnd = 0;
    /** Number of DP matrix cells evaluated (MCUPS bookkeeping, §7.4). */
    u64 cellUpdates = 0;
};

/**
 * Fitting alignment: the whole query must align, the target start and end
 * are free. This is the shape of the DP-fallback alignment of a 150 bp
 * read inside a candidate reference window.
 *
 * @param query Read sequence (aligned end-to-end).
 * @param target Reference window.
 * @param scheme Scoring parameters.
 * @param band Optional band half-width around the main diagonal;
 *             negative disables banding.
 */
AlignResult fitAlign(const genomics::DnaView &query,
                     const genomics::DnaView &target,
                     const genomics::ScoringScheme &scheme,
                     i32 band = -1);

/** fitAlign() reusing @p scratch (bit-identical, allocation-free warm). */
AlignResult fitAlign(const genomics::DnaView &query,
                     const genomics::DnaView &target,
                     const genomics::ScoringScheme &scheme, i32 band,
                     AlignScratch &scratch);

/** One fitting alignment of a batch (see fitAlignBatch). */
struct FitTask
{
    genomics::DnaView query;
    genomics::DnaView target;
    /** Band half-width; negative disables banding. */
    i32 band = -1;
};

/** Lane-major operands and DP rows of one lane score type. */
template <typename Score>
struct LaneRows
{
    std::vector<Score> queryCodes;  ///< [(i-1)*L + lane]
    std::vector<Score> targetCodes; ///< [(j-1)*L + lane]
    std::vector<Score> hPrev;
    std::vector<Score> hCur;
    std::vector<Score> f1;
    std::vector<Score> f2;
};

/**
 * Working set of the interleaved batch engine: lane-major (struct-of-
 * lanes) H/E/F rows and decoded operands per lane score type, the
 * lane-major traceback matrix, plus a scalar AlignScratch for the
 * portable backend. Sized by the widest lane group seen; reuse across
 * calls is allocation-free once warm.
 */
struct BatchAlignScratch
{
    std::vector<u8> traceback; ///< [(i*(nMax+1)+j)*L + lane]
    LaneRows<i16> rows16;      ///< i16 lanes (see affine_simd.cc)
    LaneRows<i32> rows32;      ///< i32 lanes, past the i16 bound
    std::vector<u8> decodeTmp; ///< contiguous decode staging
    AlignScratch scalar;       ///< SimdBackend::Scalar fallback path
};

/**
 * Lane occupancy of fitAlignBatch() sweeps. A sweep costs about the
 * same whether it carries one task or a full lane group, so
 * lanesUsed / (laneGroups * util::simdDpLanes()) is the fraction of
 * the DP work that was useful. An i32-lane sweep costs as much as an
 * i16 one but carries at most half that width. The scalar backend
 * counts one lane per group.
 */
struct LaneFill
{
    u64 laneGroups = 0; ///< band sweeps run
    u64 lanesUsed = 0;  ///< tasks those sweeps carried
};

/**
 * Fitting alignment of @p count independent tasks, interleaved across
 * SIMD lanes: out[i] is bit-identical to
 * fitAlign(tasks[i].query, tasks[i].target, scheme, tasks[i].band) —
 * lanes never exchange data, each computes exactly the scalar engine's
 * arithmetic — but consecutive tasks with equal query length advance
 * in lockstep through one band sweep (16 i16 lanes under AVX2, 32
 * under AVX-512; per-lane masking covers ragged target lengths and
 * bands). A lane group whose query length, widest target and scheme
 * could leave the i16 score range runs in i32 lanes, half as many per
 * sweep. The active util::SimdBackend picks the lane width; the
 * scalar backend runs the production scalar engine per task, one
 * lane per task. Degenerate (empty) tasks take no lane. Returns the
 * sweeps' lane occupancy.
 */
LaneFill fitAlignBatch(const FitTask *tasks, std::size_t count,
                       const genomics::ScoringScheme &scheme,
                       BatchAlignScratch &scratch, AlignResult *out);

/**
 * Global alignment: both sequences consumed end to end. Used by unit tests
 * and by the chain-gap stitching of the long-read path.
 */
AlignResult globalAlign(const genomics::DnaView &query,
                        const genomics::DnaView &target,
                        const genomics::ScoringScheme &scheme,
                        i32 band = -1);

/**
 * Local (Smith-Waterman) alignment: best-scoring subsequence pair. The
 * CIGAR covers only the aligned core; queryStart reports where it begins.
 */
struct LocalResult
{
    bool valid = false;
    i32 score = 0;
    genomics::Cigar cigar;
    u64 queryStart = 0;
    u64 targetStart = 0;
    u64 cellUpdates = 0;
};

LocalResult localAlign(const genomics::DnaView &query,
                       const genomics::DnaView &target,
                       const genomics::ScoringScheme &scheme);

} // namespace align
} // namespace gpx

#endif // GPX_ALIGN_AFFINE_HH
