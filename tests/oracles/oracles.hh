/**
 * @file
 * Scalar oracles of the production kernels in libgpx: the slow,
 * obviously-correct implementations the property tests compare the
 * kernels against, and the "before" rows of the kernel benches. They
 * live beside the tests (library gpx_oracles) so libgpx carries one
 * implementation per kernel. Each one keeps the production kernel's
 * namespace.
 */

#ifndef GPX_TESTS_ORACLES_HH
#define GPX_TESTS_ORACLES_HH

#include <vector>

#include "align/affine.hh"
#include "align/shd.hh"
#include "baseline/minimizer_index.hh"
#include "genomics/cigar.hh"
#include "genomics/reference.hh"
#include "genomics/sequence.hh"
#include "genpair/light_align.hh"
#include "util/types.hh"

namespace gpx {

namespace align {

/**
 * The seed fitting-alignment engine: oracle of fitAlign() and
 * fitAlignBatch(), and the seed DP of bench/micro_stage_batch.
 */
AlignResult fitAlignRef(const genomics::DnaView &query,
                        const genomics::DnaView &target,
                        const genomics::ScoringScheme &scheme,
                        i32 band = -1);

} // namespace align

namespace baseline {

/**
 * The per-base minimizer extraction (std::deque monotonic queue):
 * oracle of extractMinimizers(), which must produce the same stream.
 */
std::vector<Minimizer> extractMinimizersScalar(const genomics::DnaView &seq,
                                               const MinimizerParams &params);

} // namespace baseline

namespace filters {

/** O(n*m) DP oracle of editDistance(). */
u32 editDistanceScalar(const genomics::DnaView &a,
                       const genomics::DnaView &b);

/** Banded DP oracle of editDistanceBounded(). */
u32 editDistanceBoundedScalar(const genomics::DnaView &a,
                              const genomics::DnaView &b, u32 k);

/** Semi-global DP oracle of candidateEditDistance(). */
u32 candidateEditDistanceScalar(const genomics::DnaView &read,
                                const genomics::DnaView &window, u32 center,
                                u32 slack);

/** Bit-at-a-time oracle of zeroRunCount(). */
u32 zeroRunCountRef(const align::HammingMask &mask);

} // namespace filters

namespace genpair {

/** What the light-alignment oracles report for one attempt. */
struct LightOracleResult
{
    bool aligned = false;
    i32 score = 0;
    GlobalPos pos = kInvalidPos;
    u32 hypothesesTried = 0;
    genomics::Cigar cigar;
    u32 ties = 0; ///< later hypotheses that matched the winning score
};

/**
 * Oracle of LightAligner::evaluateHypotheses(): the enumeration that
 * builds a CIGAR for every hypothesis passing the score gate and keeps
 * the first best-scoring one. Entry s of each statistics array lives
 * at [s * stride]; the position is relative to the window (@p center
 * is the candidate start in it).
 */
LightOracleResult cigarOracle(const LightAlignParams &params, u32 n,
                              u32 center, const u32 *popcount,
                              const u32 *prefix, const u32 *suffix,
                              u32 stride);

/**
 * Oracle of LightAligner::align() and alignBatch(): the 2e+1 masks
 * built one by one (align::shiftedMasks), their statistics, then
 * cigarOracle(). A candidate whose window [candidate-e,
 * candidate+n+e) leaves its chromosome gets an empty result with zero
 * hypotheses.
 */
LightOracleResult lightAlignOracle(const genomics::Reference &ref,
                                   const LightAlignParams &params,
                                   const genomics::DnaView &read,
                                   GlobalPos candidate);

} // namespace genpair

} // namespace gpx

#endif // GPX_TESTS_ORACLES_HH
