/**
 * @file
 * The SeedMap image: the whole offline index — SeedMap shards plus the
 * MM2-lite fallback minimizer index — in one memory-mappable file.
 *
 * The paper's offline stage builds the index "only once for a given
 * reference genome" and reuses it across read sets (§4.2). The image
 * holds everything a mapper start would otherwise rebuild, laid out to
 * be used *in place*:
 *
 *   [header, 128 B]
 *   [directory: shardCount shard entries + 1 fallback entry, 64 B each]
 *   [shard 0 Seed Table]   (64-byte aligned, zero-padded)
 *   [shard 0 Location Table]
 *   [shard 1 Seed Table] ...
 *   [fallback minimizer hashes]
 *   [fallback CSR offsets]
 *   [fallback entries]
 *
 * Every section starts on a 64-byte boundary (cache-line- and
 * direct-I/O-friendly) and carries an xxh64 checksum recorded in the
 * header/directory. A shard covers a contiguous power-of-two range of
 * masked seed-hash values; its Seed Table is a local CSR over its own
 * Location Table slice. The fallback index is a CSR too: sorted unique
 * minimizer hashes, one offset per hash, and 16-byte entries. So a
 * SeedMapImage serves both halves straight from kernel-shared mapped
 * pages with zero deserialization. The header records the reference
 * fingerprint, so an image is only ever served over the FASTA it was
 * built from.
 */

#ifndef GPX_GENPAIR_SEEDMAP_IO_HH
#define GPX_GENPAIR_SEEDMAP_IO_HH

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/minimizer_index.hh"
#include "genpair/seedmap.hh"
#include "util/mapped_file.hh"

namespace gpx {
namespace genpair {

/** Section alignment of the image (cache line / DMA burst). */
inline constexpr u64 kSeedMapSectionAlign = 64;

/** Image header: two 64-byte lines, all integers little-endian. */
struct SeedMapImageHeader
{
    static constexpr u32 kMagic = 0x53504758; // "GPXS"
    static constexpr u32 kVersion = 3;

    u32 magic = kMagic;
    u32 version = kVersion;
    u32 seedLen = 0;
    u32 tableBits = 0;
    u32 filterThreshold = 0;
    u32 shardCount = 0; ///< power of two, <= 2^tableBits
    u32 minimizerK = 0; ///< fallback index (w,k) minimizer scheme
    u32 minimizerW = 0;
    u32 minimizerMaxOccurrences = 0; ///< fallback index -f cap
    u32 reserved0 = 0;
    u64 fileBytes = 0;  ///< total image size, for truncation detection
    u64 directoryOffset = 0; ///< byte offset of the directory
    u64 directoryChecksum = 0; ///< xxh64 of all shardCount+1 entries
    u64 referenceLength = 0; ///< bases; bounds every fallback entry
    u64 referenceFingerprint = 0; ///< genomics::Reference::fingerprint()
    u64 reserved[5] = {};
    /** xxh64 of the preceding 120 header bytes. */
    u64 headerChecksum = 0;
};
static_assert(sizeof(SeedMapImageHeader) == 2 * kSeedMapSectionAlign);

/** One shard directory entry (one 64-byte aligned slot each). */
struct SeedMapShardDirEntry
{
    u64 hashCount = 0;        ///< masked-hash values this shard covers
    u64 seedTableOffset = 0;  ///< byte offset, 64-byte aligned
    u64 seedTableEntries = 0; ///< hashCount + 1 local CSR offsets
    u64 seedTableChecksum = 0;
    u64 locationOffset = 0; ///< byte offset, 64-byte aligned
    u64 locationEntries = 0;
    u64 locationChecksum = 0;
    u64 reserved = 0;
};
static_assert(sizeof(SeedMapShardDirEntry) == kSeedMapSectionAlign);

/** The last directory slot: the fallback index's three CSR sections. */
struct MinimizerDirEntry
{
    u64 hashCount = 0;
    u64 entryCount = 0;
    u64 hashesOffset = 0; ///< hashCount sorted unique u64 hashes
    u64 hashesChecksum = 0;
    u64 offsetsOffset = 0; ///< hashCount + 1 u64 CSR offsets
    u64 offsetsChecksum = 0;
    u64 entriesOffset = 0; ///< entryCount MinimizerIndex::Entry
    u64 entriesChecksum = 0;
};
static_assert(sizeof(MinimizerDirEntry) == kSeedMapSectionAlign);

/**
 * Write the image of @p map and @p fallback, both built over @p ref,
 * with @p shards hash-range shards (rounded up to a power of two and
 * clamped to the Seed Table size; pass 1 for a single-shard image).
 */
void saveSeedMapImage(std::ostream &os, const genomics::Reference &ref,
                      const SeedMap &map,
                      const baseline::MinimizerIndex &fallback,
                      u32 shards = 1);

/** Options for SeedMapImage::open. */
struct SeedMapOpenOptions
{
    /**
     * Verify the payload section checksums at open time. Costs one
     * sequential read of the image's pages; disable for
     * latency-critical restarts of already-trusted images (the header,
     * the directory and the CSR structure are always verified).
     */
    bool verifyPayload = true;
    /**
     * When set, reject an image built from a different reference
     * (fingerprint or length mismatch). Every caller that maps reads
     * against this reference should set it.
     */
    const genomics::Reference *reference = nullptr;
};

/**
 * An opened SeedMap image. Both the SeedMap tables and the fallback
 * minimizer index are served straight from a read-only memory mapping:
 * zero-copy, demand-paged and kernel-shared across every process
 * mapping the same file.
 */
class SeedMapImage
{
  public:
    /**
     * Open @p path, validating the header, directory, CSR structure
     * and (by default) payload checksums, all under a SIGBUS guard.
     * Returns std::nullopt with a diagnostic in @p error on any
     * validation failure.
     */
    static std::optional<SeedMapImage>
    open(const std::string &path, const SeedMapOpenOptions &options = {},
         std::string *error = nullptr);

    /**
     * Query view over the image. Valid as long as this SeedMapImage is
     * alive and unmoved-from; hand it to the drivers by value.
     */
    SeedMapView
    view() const
    {
        return { params_, params_.tableBits, shards_ };
    }

    /**
     * The MM2-lite fallback index, served from the image's sections.
     * Hand it to DriverConfig::fallbackIndex / LongReadDriver; it
     * shares ownership of the mapping.
     */
    const std::shared_ptr<const baseline::MinimizerIndex> &
    fallbackIndex() const
    {
        return fallback_;
    }

    u32 shardCount() const { return static_cast<u32>(shards_.size()); }
    /** On-disk image size in bytes. */
    u64 imageBytes() const { return file_->size(); }

  private:
    SeedMapImage() = default;

    std::shared_ptr<const util::MappedFile> file_;
    std::vector<SeedMapShardView> shards_; ///< spans into file_
    SeedMapParams params_;
    std::shared_ptr<const baseline::MinimizerIndex> fallback_;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_SEEDMAP_IO_HH
