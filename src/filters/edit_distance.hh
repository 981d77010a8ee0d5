/**
 * @file
 * Unit-cost edit distance (Levenshtein) with bit-parallel kernels.
 *
 * The primary implementations use Myers' 1999 bit-vector algorithm
 * (blocked for patterns longer than 64 bases, with the edlib-style
 * horizontal carry chain between blocks): one column of the DP matrix
 * costs a handful of word operations per 64 pattern rows instead of 64
 * scalar cells. The bounded variant adds a Ukkonen-style cutoff — the
 * running last-row score minus the columns still to come lower-bounds
 * the final distance, so hopeless candidates exit early. The semi-global
 * variant (candidateEditDistance) runs the same kernel with a free text
 * prefix (zero horizontal boundary deltas) and a running minimum over
 * the last row for the free suffix.
 *
 * The original O(n*m) DPs are the oracles of these kernels; they live
 * in tests/oracles (edit_distance_ref.cc).
 */

#ifndef GPX_FILTERS_EDIT_DISTANCE_HH
#define GPX_FILTERS_EDIT_DISTANCE_HH

#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace filters {

/** Full unit-cost edit distance between two sequences (bit-parallel). */
u32 editDistance(const genomics::DnaView &a, const genomics::DnaView &b);

/**
 * Banded edit distance with cutoff @p k: returns the exact distance when
 * it is <= k, otherwise k+1 ("more than k"). Bit-parallel with a
 * Ukkonen-style early exit.
 */
u32 editDistanceBounded(const genomics::DnaView &a,
                        const genomics::DnaView &b, u32 k);

/**
 * Minimum edit distance between @p read and any prefix-anchored
 * placement inside @p window at offsets within +/- @p slack of
 * @p center; this is the exact quantity pre-alignment filters
 * lower-bound (the read must align somewhere near the candidate, the
 * window edges are free).
 */
u32 candidateEditDistance(const genomics::DnaView &read,
                          const genomics::DnaView &window, u32 center,
                          u32 slack);

} // namespace filters
} // namespace gpx

#endif // GPX_FILTERS_EDIT_DISTANCE_HH
