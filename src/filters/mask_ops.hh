/**
 * @file
 * Shared Hamming-mask bit operations for the filter implementations:
 * run extraction and the "amendment" passes of GateKeeper/SHD that kill
 * short spurious match runs. Masks follow align/shd.hh's convention
 * (bit set = bases match).
 */

#ifndef GPX_FILTERS_MASK_OPS_HH
#define GPX_FILTERS_MASK_OPS_HH

#include "align/shd.hh"
#include "util/types.hh"

namespace gpx {
namespace filters {

/** Length of the run of 1s starting at bit @p pos (0 if bit is 0). */
u32 onesRunAt(const align::HammingMask &mask, u32 pos);

/**
 * Amendment (GateKeeper §III-B / SHD speculative removal): zero out
 * every run of 1s strictly shorter than @p min_run. Short random match
 * runs between true errors would otherwise hide mismatches when masks
 * are OR-combined.
 */
align::HammingMask amendShortRuns(const align::HammingMask &mask,
                                  u32 min_run);

/** Bitwise OR of two equal-width masks. */
align::HammingMask orMasks(const align::HammingMask &a,
                           const align::HammingMask &b);

/**
 * Number of maximal runs of 0s (error clusters) in the mask.
 * Word-parallel: counts run starts as popcount(~m & ((m << 1) | 1))
 * with the carry threaded across words, ~64x fewer operations than the
 * bit-at-a-time walk (the oracle under tests/oracles).
 */
u32 zeroRunCount(const align::HammingMask &mask);

/** Number of 0 bits (positions matching under no shift). */
u32 zeroCount(const align::HammingMask &mask);

} // namespace filters
} // namespace gpx

#endif // GPX_FILTERS_MASK_OPS_HH
