/**
 * @file
 * Minimizer index over the reference genome.
 *
 * This is the seeding substrate of the Minimap2-like baseline mapper
 * ("MM2" in the paper's evaluation). Canonical k-mers are selected by a
 * (w,k) minimizer scheme and stored in a sorted (hash, location) table.
 */

#ifndef GPX_BASELINE_MINIMIZER_INDEX_HH
#define GPX_BASELINE_MINIMIZER_INDEX_HH

#include <memory>
#include <span>
#include <vector>

#include "genomics/reference.hh"
#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace baseline {

/** Minimizer scheme parameters (Minimap2 sr preset uses k=21, w=11). */
struct MinimizerParams
{
    u32 k = 21;
    u32 w = 11;
    /** Drop minimizers occurring more often than this (like mm2 -f). */
    u32 maxOccurrences = 500;
};

/** One minimizer: canonical k-mer hash plus its position and strand. */
struct Minimizer
{
    u64 hash = 0;
    u64 pos = 0;       ///< position of the k-mer's first base
    bool reverse = false; ///< canonical k-mer is the reverse complement
};

/**
 * Extract the minimizers of a sequence (used for both index and reads).
 * The k-mer hashes roll directly over the packed 2-bit words; any
 * DnaSequence converts implicitly to the view.
 */
std::vector<Minimizer> extractMinimizers(const genomics::DnaView &seq,
                                         const MinimizerParams &params);

/** extractMinimizers() into @p out (cleared first, capacity kept). */
void extractMinimizers(const genomics::DnaView &seq,
                       const MinimizerParams &params,
                       std::vector<Minimizer> &out);

/**
 * Sorted minimizer table over a reference genome, in CSR form: sorted
 * unique hashes, one offset per hash into the entry table, and the
 * entries. The tables are spans, so the same type serves an index
 * built in memory and one served in place from a SeedMap image
 * (genpair::SeedMapImage::fallbackIndex()).
 */
class MinimizerIndex
{
  public:
    /**
     * Index entry: reference position and strand of one occurrence.
     * The padding is an explicit, zeroed member because index images
     * store entries byte for byte.
     */
    struct Entry
    {
        GlobalPos pos;
        bool reverse;
        u8 reserved[7] = {};
    };
    static_assert(sizeof(Entry) == 16);

    /** Build the index from the reference (the in-process path). */
    MinimizerIndex(const genomics::Reference &ref,
                   const MinimizerParams &params);

    /**
     * Serve prebuilt tables in place. The caller has validated them:
     * @p hashes strictly increasing, @p offsets hashes.size()+1
     * monotone entries from 0 to entries.size(). @p backing keeps the
     * tables' storage alive for as long as this index (or a copy) is.
     */
    MinimizerIndex(const MinimizerParams &params,
                   std::span<const u64> hashes,
                   std::span<const u64> offsets,
                   std::span<const Entry> entries,
                   std::shared_ptr<const void> backing);

    const MinimizerParams &params() const { return params_; }

    /** All occurrences of a minimizer hash (empty if filtered/absent). */
    std::span<const Entry> lookup(u64 hash) const;

    u64 numEntries() const { return entries_.size(); }

    /** The CSR tables (what an index image stores). */
    std::span<const u64> hashes() const { return hashes_; }
    std::span<const u64> offsets() const { return offsets_; }
    std::span<const Entry> entries() const { return entries_; }

  private:
    MinimizerParams params_;
    std::shared_ptr<const void> backing_; ///< owns the tables' storage
    std::span<const u64> hashes_;  ///< sorted unique hashes
    std::span<const u64> offsets_; ///< CSR offsets into entries_
    std::span<const Entry> entries_;
};

} // namespace baseline
} // namespace gpx

#endif // GPX_BASELINE_MINIMIZER_INDEX_HH
