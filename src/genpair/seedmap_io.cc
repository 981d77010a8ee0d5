#include "genpair/seedmap_io.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <ostream>

#include "util/fault.hh"
#include "util/logging.hh"
#include "util/sigbus_guard.hh"
#include "util/xxhash.hh"

namespace gpx {
namespace genpair {

namespace {

u64
alignUp(u64 value)
{
    return (value + kSeedMapSectionAlign - 1) &
           ~(kSeedMapSectionAlign - 1);
}

/** Parsed image: section views into caller-owned bytes. */
struct ParsedImage
{
    SeedMapParams params;
    std::vector<SeedMapShardView> shards;
    baseline::MinimizerParams fallbackParams;
    std::span<const u64> fallbackHashes;
    std::span<const u64> fallbackOffsets;
    std::span<const baseline::MinimizerIndex::Entry> fallbackEntries;
};

/**
 * True iff @p v[0, n) never steps down (strictly ascending when
 * @p Strict). A branchless block scan that vectorizes; damaged images
 * are the rare case, so nothing locates the offending entry.
 */
template <bool Strict, typename T>
bool
ascending(const T *v, u64 n)
{
    for (u64 i = 0; i + 1 < n;) {
        const u64 end = std::min<u64>(n - 1, i + 4096);
        u32 bad = 0;
        for (; i < end; ++i)
            bad |= static_cast<u32>(Strict ? v[i] >= v[i + 1]
                                           : v[i] > v[i + 1]);
        if (bad != 0)
            return false;
    }
    return true;
}

/** True iff [offset, offset + bytes) is an aligned range of the image. */
bool
sectionInBounds(u64 offset, u64 bytes, u64 size)
{
    return offset % kSeedMapSectionAlign == 0 && offset <= size &&
           bytes <= size - offset;
}

/**
 * Validate and carve the fallback index sections; returns a diagnostic,
 * empty on success. Structural checks run even without payload
 * verification: a checksum proves the bytes are the author's, not that
 * the author's CSR is sane, and lookup() and the DP fallback trust
 * every offset and position.
 */
std::string
parseFallback(const u8 *data, u64 size, const SeedMapImageHeader &hdr,
              const MinimizerDirEntry &ent, bool verify, ParsedImage &out)
{
    using Entry = baseline::MinimizerIndex::Entry;
    if (ent.hashCount >= size / sizeof(u64) ||
        ent.entryCount > size / sizeof(Entry))
        return "section sizes exceed the image";
    const u64 hashBytes = ent.hashCount * sizeof(u64);
    const u64 offsetBytes = (ent.hashCount + 1) * sizeof(u64);
    const u64 entryBytes = ent.entryCount * sizeof(Entry);
    if (!sectionInBounds(ent.hashesOffset, hashBytes, size) ||
        !sectionInBounds(ent.offsetsOffset, offsetBytes, size) ||
        !sectionInBounds(ent.entriesOffset, entryBytes, size))
        return "section out of bounds";
    const auto *hashes =
        reinterpret_cast<const u64 *>(data + ent.hashesOffset);
    const auto *offsets =
        reinterpret_cast<const u64 *>(data + ent.offsetsOffset);
    const u8 *entries = data + ent.entriesOffset;
    if (verify && (util::xxh64(hashes, hashBytes) != ent.hashesChecksum ||
                   util::xxh64(offsets, offsetBytes) != ent.offsetsChecksum ||
                   util::xxh64(entries, entryBytes) != ent.entriesChecksum))
        return "section checksum mismatch";
    if (offsets[0] != 0 || offsets[ent.hashCount] != ent.entryCount)
        return "CSR offsets do not cover the " +
               std::to_string(ent.entryCount) + " entries";
    if (!ascending<false>(offsets, ent.hashCount + 1))
        return "CSR offsets are not monotone";
    if (!ascending<true>(hashes, ent.hashCount))
        return "hashes are not sorted and unique";
    // Each entry is (position, strand byte + 7 zero bytes) as two
    // little-endian words: the position must lie in the reference and
    // the second word must be 0 or 1 (a valid bool, zero padding).
    u32 bad = 0;
    for (u64 i = 0; i < ent.entryCount; ++i) {
        u64 words[2];
        std::memcpy(words, entries + i * sizeof(Entry), sizeof(words));
        bad |= static_cast<u32>(words[0] >= hdr.referenceLength) |
               static_cast<u32>(words[1] > 1);
    }
    if (bad != 0)
        return "entry position past the reference length " +
               std::to_string(hdr.referenceLength) + " or malformed strand";
    out.fallbackParams = { hdr.minimizerK, hdr.minimizerW,
                           hdr.minimizerMaxOccurrences };
    out.fallbackHashes = { hashes, ent.hashCount };
    out.fallbackOffsets = { offsets, ent.hashCount + 1 };
    out.fallbackEntries = { reinterpret_cast<const Entry *>(entries),
                            ent.entryCount };
    return {};
}

/** Validate and carve shard @p s; returns a diagnostic, empty if sane. */
std::string
parseShard(const u8 *data, u64 size, const SeedMapShardDirEntry &ent,
           u64 hashPerShard, bool verify, ParsedImage &out)
{
    if (ent.hashCount != hashPerShard)
        return "hash range " + std::to_string(ent.hashCount) +
               " does not partition the seed table (want " +
               std::to_string(hashPerShard) + ")";
    if (ent.seedTableEntries != ent.hashCount + 1)
        return "seed table entry count " +
               std::to_string(ent.seedTableEntries) + " is not hashCount+1";
    if (ent.locationEntries > (u64{ 1 } << 32))
        return "location entry count overflows the 32-bit location space";
    const u64 seedBytes = ent.seedTableEntries * sizeof(u32);
    const u64 locBytes = ent.locationEntries * sizeof(u32);
    if (!sectionInBounds(ent.seedTableOffset, seedBytes, size))
        return "seed table section out of bounds";
    if (!sectionInBounds(ent.locationOffset, locBytes, size))
        return "location section out of bounds";
    const auto *seedTable =
        reinterpret_cast<const u32 *>(data + ent.seedTableOffset);
    const auto *locations =
        reinterpret_cast<const u32 *>(data + ent.locationOffset);
    if (verify && util::xxh64(seedTable, seedBytes) != ent.seedTableChecksum)
        return "seed table checksum mismatch";
    if (verify && util::xxh64(locations, locBytes) != ent.locationChecksum)
        return "location table checksum mismatch";
    // The local CSR's structure, checked with or without the checksums
    // (see parseFallback): monotonicity plus the endpoints bound every
    // interior entry to [0, locationEntries].
    if (seedTable[0] != 0 ||
        seedTable[ent.seedTableEntries - 1] != ent.locationEntries)
        return "local CSR does not cover the location slice";
    if (!ascending<false>(seedTable, ent.seedTableEntries))
        return "local CSR is not monotone";
    out.shards.push_back({ { seedTable, ent.seedTableEntries },
                           { locations, ent.locationEntries } });
    return {};
}

/**
 * Validate an image held in memory and carve the section views out of
 * it; returns a diagnostic, empty on success. @p data must stay alive
 * as long as the views in @p out. The fuzz suite drives every branch.
 */
std::string
parseImage(const u8 *data, u64 size, const SeedMapOpenOptions &options,
           ParsedImage &out)
{
    u32 magicVersion[2];
    if (size < sizeof(magicVersion))
        return "file too small to be a SeedMap image (" +
               std::to_string(size) + " bytes)";
    std::memcpy(magicVersion, data, sizeof(magicVersion));
    if (magicVersion[0] != SeedMapImageHeader::kMagic)
        return "not a SeedMap image (bad magic)";
    if (magicVersion[1] != SeedMapImageHeader::kVersion)
        return "unsupported image version " +
               std::to_string(magicVersion[1]) + "; rebuild with gpx_index";
    SeedMapImageHeader hdr;
    if (size < sizeof(hdr))
        return "truncated before the end of the header (" +
               std::to_string(size) + " bytes)";
    std::memcpy(&hdr, data, sizeof(hdr));
    if (hdr.headerChecksum != util::xxh64(data, sizeof(hdr) - sizeof(u64)))
        return "header checksum mismatch";
    if (hdr.fileBytes != size)
        return "file size " + std::to_string(size) +
               " does not match header fileBytes " +
               std::to_string(hdr.fileBytes);
    if (hdr.seedLen < 8 || hdr.seedLen > kMaxSeedLen)
        return "unsupported seed length " + std::to_string(hdr.seedLen);
    if (hdr.tableBits == 0 || hdr.tableBits > 30)
        return "table bits out of range: " + std::to_string(hdr.tableBits);
    if (hdr.minimizerK < 4 || hdr.minimizerK > 31 || hdr.minimizerW == 0 ||
        hdr.minimizerW > 255)
        return "fallback minimizer scheme out of range: k=" +
               std::to_string(hdr.minimizerK) +
               " w=" + std::to_string(hdr.minimizerW);
    const genomics::Reference *ref = options.reference;
    if (ref != nullptr && (hdr.referenceFingerprint != ref->fingerprint() ||
                           hdr.referenceLength != ref->totalLength()))
        return "built from a different reference (" +
               std::to_string(hdr.referenceLength) + " bp image vs " +
               std::to_string(ref->totalLength()) +
               " bp FASTA, or same length, other sequence); rebuild with "
               "gpx_index";
    const u64 tableEntries = u64{ 1 } << hdr.tableBits;
    if (hdr.shardCount == 0 || !std::has_single_bit(hdr.shardCount) ||
        hdr.shardCount > tableEntries)
        return "shard count must be a power of two in [1, 2^" +
               std::to_string(hdr.tableBits) + "], got " +
               std::to_string(hdr.shardCount);
    const u64 shardDirBytes =
        u64{ hdr.shardCount } * sizeof(SeedMapShardDirEntry);
    const u64 dirBytes = shardDirBytes + sizeof(MinimizerDirEntry);
    if (hdr.directoryOffset < sizeof(hdr) ||
        !sectionInBounds(hdr.directoryOffset, dirBytes, size))
        return "directory out of bounds";
    const u8 *dir = data + hdr.directoryOffset;
    if (hdr.directoryChecksum != util::xxh64(dir, dirBytes))
        return "directory checksum mismatch";

    out.params.seedLen = hdr.seedLen;
    out.params.tableBits = hdr.tableBits;
    out.params.filterThreshold = hdr.filterThreshold;
    out.shards.reserve(hdr.shardCount);
    u64 totalLocations = 0;
    for (u32 s = 0; s < hdr.shardCount; ++s) {
        SeedMapShardDirEntry ent;
        std::memcpy(&ent, dir + u64{ s } * sizeof(ent), sizeof(ent));
        std::string bad = parseShard(data, size, ent,
                                     tableEntries / hdr.shardCount,
                                     options.verifyPayload, out);
        if (!bad.empty())
            return "shard " + std::to_string(s) + ": " + bad;
        totalLocations += ent.locationEntries;
    }
    // Lookups rebase shard-local offsets in 32 bits; a crafted
    // directory whose slices sum past that would wrap.
    if (totalLocations > u64{ 0xFFFFFFFF })
        return "total location count " + std::to_string(totalLocations) +
               " overflows the 32-bit offset space";

    MinimizerDirEntry fallback;
    std::memcpy(&fallback, dir + shardDirBytes, sizeof(fallback));
    std::string bad = parseFallback(data, size, hdr, fallback,
                                    options.verifyPayload, out);
    if (!bad.empty())
        return "fallback index: " + bad;
    return {};
}

/** Write @p bytes of @p data, then zero-pad to the section alignment. */
void
writeSection(std::ostream &os, const void *data, u64 bytes)
{
    static const char zeros[kSeedMapSectionAlign] = {};
    os.write(static_cast<const char *>(data),
             static_cast<std::streamsize>(bytes));
    os.write(zeros, static_cast<std::streamsize>(alignUp(bytes) - bytes));
}

} // namespace

void
saveSeedMapImage(std::ostream &os, const genomics::Reference &ref,
                 const SeedMap &map,
                 const baseline::MinimizerIndex &fallback, u32 shards)
{
    const u32 tableBits = map.tableBits();
    const u64 tableEntries = u64{ 1 } << tableBits;
    u64 want = std::bit_ceil(
        u64{ std::clamp<u32>(shards, 1, 1u << 30) });
    const u32 shardCount =
        static_cast<u32>(std::min<u64>(want, tableEntries));
    const u64 hashPerShard = tableEntries / shardCount;

    const std::vector<u32> &seedTable = map.rawSeedTable();
    const std::vector<u32> &locations = map.rawLocationTable();

    // Lay out the directory first so every section offset is known
    // before anything is written.
    std::vector<SeedMapShardDirEntry> dir(shardCount);
    u64 offset = alignUp(sizeof(SeedMapImageHeader) +
                         u64{ shardCount } * sizeof(SeedMapShardDirEntry) +
                         sizeof(MinimizerDirEntry));
    // Shard-local CSR tables are derived (rebased) copies; build them
    // once, checksum them, and reuse at write time.
    std::vector<std::vector<u32>> localCsr(shardCount);
    for (u32 s = 0; s < shardCount; ++s) {
        const u64 lo = u64{ s } * hashPerShard;
        const u32 globalBase = seedTable[lo];
        const u32 globalEnd = seedTable[lo + hashPerShard];
        localCsr[s].resize(hashPerShard + 1);
        for (u64 i = 0; i <= hashPerShard; ++i)
            localCsr[s][i] = seedTable[lo + i] - globalBase;

        SeedMapShardDirEntry &ent = dir[s];
        ent.hashCount = hashPerShard;
        ent.seedTableOffset = offset;
        ent.seedTableEntries = hashPerShard + 1;
        ent.seedTableChecksum = util::xxh64(
            localCsr[s].data(), localCsr[s].size() * sizeof(u32));
        offset = alignUp(offset + ent.seedTableEntries * sizeof(u32));
        ent.locationOffset = offset;
        ent.locationEntries = globalEnd - globalBase;
        ent.locationChecksum = util::xxh64(
            locations.data() + globalBase,
            ent.locationEntries * sizeof(u32));
        offset = alignUp(offset + ent.locationEntries * sizeof(u32));
    }

    const auto hashes = fallback.hashes();
    const auto offsets = fallback.offsets();
    const auto entries = fallback.entries();
    MinimizerDirEntry fb;
    fb.hashCount = hashes.size();
    fb.entryCount = entries.size();
    fb.hashesOffset = offset;
    fb.hashesChecksum = util::xxh64(hashes.data(), hashes.size_bytes());
    offset = alignUp(offset + hashes.size_bytes());
    fb.offsetsOffset = offset;
    fb.offsetsChecksum = util::xxh64(offsets.data(), offsets.size_bytes());
    offset = alignUp(offset + offsets.size_bytes());
    fb.entriesOffset = offset;
    fb.entriesChecksum = util::xxh64(entries.data(), entries.size_bytes());
    offset = alignUp(offset + entries.size_bytes());

    SeedMapImageHeader hdr;
    hdr.seedLen = map.params().seedLen;
    hdr.tableBits = tableBits;
    hdr.filterThreshold = map.params().filterThreshold;
    hdr.shardCount = shardCount;
    hdr.minimizerK = fallback.params().k;
    hdr.minimizerW = fallback.params().w;
    hdr.minimizerMaxOccurrences = fallback.params().maxOccurrences;
    hdr.fileBytes = offset;
    hdr.directoryOffset = sizeof(SeedMapImageHeader);
    hdr.referenceLength = ref.totalLength();
    hdr.referenceFingerprint = ref.fingerprint();
    // The directory is checksummed as open() reads it: the shard
    // entries and the fallback entry as one contiguous run.
    const u64 shardDirBytes = dir.size() * sizeof(SeedMapShardDirEntry);
    std::vector<u8> dirBytes(shardDirBytes + sizeof(fb));
    std::memcpy(dirBytes.data(), dir.data(), shardDirBytes);
    std::memcpy(dirBytes.data() + shardDirBytes, &fb, sizeof(fb));
    hdr.directoryChecksum = util::xxh64(dirBytes.data(), dirBytes.size());
    hdr.headerChecksum =
        util::xxh64(&hdr, sizeof(hdr) - sizeof(u64));

    os.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    writeSection(os, dirBytes.data(), dirBytes.size());
    for (u32 s = 0; s < shardCount; ++s) {
        writeSection(os, localCsr[s].data(),
                     localCsr[s].size() * sizeof(u32));
        writeSection(os, locations.data() + seedTable[u64{ s } * hashPerShard],
                     dir[s].locationEntries * sizeof(u32));
    }
    writeSection(os, hashes.data(), hashes.size_bytes());
    writeSection(os, offsets.data(), offsets.size_bytes());
    writeSection(os, entries.data(), entries.size_bytes());
}

std::optional<SeedMapImage>
SeedMapImage::open(const std::string &path,
                   const SeedMapOpenOptions &options, std::string *error)
{
    auto mapped = util::MappedFile::open(path, error);
    if (!mapped)
        return std::nullopt;
    // Validate in place against the mapping, once. The pass touches
    // every byte the image will ever serve, so it runs under the SIGBUS
    // guard: a file truncated between mmap and here (or shrunk by a
    // botched index refresh) becomes a diagnostic reject instead of
    // killing the process.
    std::string bad;
    ParsedImage parsed;
    if (util::checkFault("mmap.validate")) {
        bad = path + ": injected validation fault (mmap.validate)";
    } else {
        mapped->prefetch();
        if (!util::SigbusGuard::run([&] {
                bad = parseImage(mapped->data(), mapped->size(), options,
                                 parsed);
            }))
            bad = path + " truncated while validating (SIGBUS on a "
                         "mapped page); refusing image";
    }
    if (!bad.empty()) {
        if (error != nullptr)
            *error = "seedmap image: " + bad;
        return std::nullopt;
    }

    SeedMapImage image;
    image.file_ = std::make_shared<const util::MappedFile>(
        std::move(*mapped));
    image.shards_ = std::move(parsed.shards);
    image.params_ = parsed.params;
    image.fallback_ = std::make_shared<const baseline::MinimizerIndex>(
        parsed.fallbackParams, parsed.fallbackHashes,
        parsed.fallbackOffsets, parsed.fallbackEntries, image.file_);
    return image;
}

} // namespace genpair
} // namespace gpx
