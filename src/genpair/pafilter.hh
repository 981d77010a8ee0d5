/**
 * @file
 * SeedMap Query merging and Paired-Adjacency Filtering (paper §4.4-4.5).
 *
 * The query stage turns the three seed location lists of a read into one
 * sorted, deduplicated list of candidate *read start* positions by
 * merging the pre-sorted lists on the fly, as the query unit does. The
 * Paired-Adjacency filter then co-iterates the two reads' candidate lists
 * and keeps only pairs whose distance is within the insert threshold
 * delta — the step that replaces DP chaining for paired-end reads.
 */

#ifndef GPX_GENPAIR_PAFILTER_HH
#define GPX_GENPAIR_PAFILTER_HH

#include <vector>

#include "genpair/seedmap.hh"
#include "genpair/seeder.hh"
#include "util/types.hh"

namespace gpx {
namespace genpair {

/** Work counters fed into the hardware module models (Table 3). */
struct QueryWork
{
    u64 seedLookups = 0;      ///< Seed Table accesses
    u64 locationsFetched = 0; ///< Location Table entries streamed
    u64 filterIterations = 0; ///< comparator cycles in the PA filter

    QueryWork &
    operator+=(const QueryWork &other)
    {
        seedLookups += other.seedLookups;
        locationsFetched += other.locationsFetched;
        filterIterations += other.filterIterations;
        return *this;
    }
};

/**
 * Query SeedMap with a read's three seeds and merge the sorted location
 * lists into candidate read-start positions (location minus the seed's
 * offset in the read), deduplicated.
 */
std::vector<GlobalPos> queryCandidates(const SeedMapView &map,
                                       const ReadSeeds &seeds,
                                       QueryWork &work);

/**
 * queryCandidates() appending into @p out (whose storage is reused
 * across calls): the three lists, each from its first location at or
 * past the seed's offset in the read, are merged on the fly into the
 * tail of @p out, sorted and duplicate-free. Returns how many
 * candidates were appended. The CSR-batched QueryStage packs every
 * lane of a PairBatch into one growing vector through this form.
 */
std::size_t queryCandidatesInto(const SeedMapView &map,
                                const ReadSeeds &seeds, QueryWork &work,
                                std::vector<GlobalPos> &out);

/** One candidate pair position that survived the adjacency filter. */
struct CandidatePair
{
    GlobalPos leftStart;  ///< candidate start of the left (upstream) read
    GlobalPos rightStart; ///< candidate start of the right read
};

/**
 * Paired-Adjacency Filtering: two-pointer sweep over the sorted
 * candidate lists keeping pairs with 0 <= right - left <= delta.
 *
 * @param left Sorted candidate starts of the upstream read.
 * @param right Sorted candidate starts of the downstream read.
 * @param delta Positional distance threshold (paper: 200-500 bp).
 * @param work Iteration counter (hardware comparator cycles).
 */
std::vector<CandidatePair> pairedAdjacencyFilter(
    const std::vector<GlobalPos> &left, const std::vector<GlobalPos> &right,
    u32 delta, QueryWork &work);

/**
 * pairedAdjacencyFilter() over raw spans, appending into @p out (reused
 * storage). Returns how many candidate pairs were appended. Span form
 * because the batched PaFilterStage reads its inputs out of one CSR
 * candidate store rather than per-pair vectors.
 */
std::size_t pairedAdjacencyFilterInto(const GlobalPos *left,
                                      std::size_t left_count,
                                      const GlobalPos *right,
                                      std::size_t right_count, u32 delta,
                                      QueryWork &work,
                                      std::vector<CandidatePair> &out);

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_PAFILTER_HH
