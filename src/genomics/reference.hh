/**
 * @file
 * Multi-chromosome reference genome with a flat global coordinate space.
 *
 * The SeedMap Location Table stores (chromosome, offset) pairs (paper
 * Fig. 4); this class provides the bijection between that representation
 * and the flat GlobalPos used by the adjacency filter's distance check.
 */

#ifndef GPX_GENOMICS_REFERENCE_HH
#define GPX_GENOMICS_REFERENCE_HH

#include <string>
#include <vector>

#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace genomics {

/** A (chromosome id, offset within chromosome) location. */
struct ChromPos
{
    u32 chrom = 0;
    u64 offset = 0;

    bool
    operator==(const ChromPos &other) const
    {
        return chrom == other.chrom && offset == other.offset;
    }
};

/** Reference genome: named chromosomes over a global coordinate space. */
class Reference
{
  public:
    /** Append a chromosome; returns its id. */
    u32 addChromosome(std::string name, DnaSequence seq);

    u32 numChromosomes() const { return static_cast<u32>(chroms_.size()); }

    const std::string &name(u32 chrom) const { return names_.at(chrom); }
    const DnaSequence &chromosome(u32 chrom) const { return chroms_.at(chrom); }
    u64 chromosomeLength(u32 chrom) const { return chroms_.at(chrom).size(); }

    /** Total number of bases across all chromosomes. */
    u64 totalLength() const { return total_; }

    /**
     * Identity of the reference: xxh64 chained (each call seeded with
     * the previous digest, starting from 0) over every chromosome's
     * name bytes, its length as a little-endian u64, and its packed
     * bases (4 per byte, LSB-first, tail bits zero). Index images
     * record it so they are only ever served over the FASTA they were
     * built from.
     */
    u64 fingerprint() const;

    /** Convert a global position to (chromosome, offset). */
    ChromPos toChromPos(GlobalPos pos) const;

    /** Convert (chromosome, offset) to a global position. */
    GlobalPos toGlobal(u32 chrom, u64 offset) const;

    /** Global position of a chromosome's first base. */
    GlobalPos chromosomeStart(u32 chrom) const { return starts_.at(chrom); }

    /** Base code at a global position. */
    u8 baseAt(GlobalPos pos) const;

    /**
     * Fetch the window [pos, pos+len) as a DnaSequence, clamped to the
     * containing chromosome (never crosses a chromosome boundary; short
     * windows at chromosome ends are truncated).
     */
    DnaSequence window(GlobalPos pos, u64 len) const;

    /**
     * Zero-copy variant of window(): a view aliasing the chromosome's
     * packed storage, clamped identically. Valid for the lifetime of
     * this Reference; this is what the candidate-inspection hot paths
     * (filters, light alignment, DP fallback) consume.
     */
    DnaView windowView(GlobalPos pos, u64 len) const;

    /**
     * True iff [pos, pos+len) lies fully within one chromosome; seeds and
     * alignment windows that would straddle a boundary are invalid.
     */
    bool windowValid(GlobalPos pos, u64 len) const;

  private:
    std::vector<std::string> names_;
    std::vector<DnaSequence> chroms_;
    std::vector<GlobalPos> starts_;
    u64 total_ = 0;
};

} // namespace genomics
} // namespace gpx

#endif // GPX_GENOMICS_REFERENCE_HH
