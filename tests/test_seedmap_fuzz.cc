/**
 * @file
 * Format-fuzz wall for the SeedMap image: every header and directory
 * byte bit-flipped, truncation at every section boundary, every payload
 * section corrupted, and authored images whose checksums are valid but
 * whose CSR tables are not. The contract under test: SeedMapImage::open
 * must reject a damaged image with a diagnostic — never crash, never
 * silently accept. The ASan/UBSan CI job runs this suite too, so any
 * out-of-bounds parse is caught even when it would not change the
 * verdict.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "genpair/seedmap_io.hh"
#include "simdata/genome_generator.hh"
#include "util/xxhash.hh"

namespace {

using namespace gpx;
using baseline::MinimizerIndex;
using genomics::Reference;
using genpair::MinimizerDirEntry;
using genpair::SeedMap;
using genpair::SeedMapImage;
using genpair::SeedMapImageHeader;
using genpair::SeedMapOpenOptions;
using genpair::SeedMapParams;
using genpair::SeedMapShardDirEntry;

Reference
makeGenome(u64 seed)
{
    simdata::GenomeParams gp;
    gp.length = 20000;
    gp.chromosomes = 2;
    gp.seed = seed;
    return simdata::generateGenome(gp);
}

std::string
imageBytes(const Reference &ref, const SeedMap &map, u32 shards)
{
    std::ostringstream os;
    genpair::saveSeedMapImage(os, ref, map,
                              MinimizerIndex(ref, baseline::MinimizerParams{}),
                              shards);
    return os.str();
}

template <typename T>
T
readAt(const std::string &bytes, std::size_t offset)
{
    T value;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
}

template <typename T>
void
writeAt(std::string &bytes, std::size_t offset, const T &value)
{
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

void
expectSameEntries(std::span<const MinimizerIndex::Entry> want,
                  std::span<const MinimizerIndex::Entry> got,
                  const std::string &what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].pos, got[i].pos) << what << " entry " << i;
        EXPECT_EQ(want[i].reverse, got[i].reverse) << what << " entry " << i;
    }
}

class SeedMapFuzzTest : public ::testing::Test
{
  protected:
    static constexpr u32 kShards = 4;

    void
    SetUp() override
    {
        ref_ = makeGenome(99);
        SeedMapParams sp;
        sp.tableBits = 12; // small table keeps the fuzz grid fast
        map_ = std::make_unique<SeedMap>(ref_, sp);
        fallback_ = std::make_unique<MinimizerIndex>(
            ref_, baseline::MinimizerParams{});
        image_ = imageBytes(ref_, *map_, kShards);

        hdr_ = readAt<SeedMapImageHeader>(image_, 0);
        ASSERT_EQ(hdr_.shardCount, kShards);
        ASSERT_EQ(hdr_.fileBytes, image_.size());
        fb_ = readAt<MinimizerDirEntry>(image_, fallbackSlot());
        ASSERT_EQ(fb_.entryCount, fallback_->numEntries());
        ASSERT_GT(fb_.hashCount, 16u);
    }

    std::size_t
    fallbackSlot() const
    {
        return hdr_.directoryOffset +
               std::size_t{ hdr_.shardCount } * sizeof(SeedMapShardDirEntry);
    }

    SeedMapShardDirEntry
    shardEntry(u32 s) const
    {
        return readAt<SeedMapShardDirEntry>(
            image_, hdr_.directoryOffset + std::size_t{ s } *
                                               sizeof(SeedMapShardDirEntry));
    }

    /** Write @p bytes to a temp file and return the path. */
    std::string
    writeTemp(const std::string &bytes, const std::string &tag)
    {
        std::string path = ::testing::TempDir() + "gpx_fuzz_" + tag +
                           ".gpx";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.close();
        return path;
    }

    /** Open @p bytes; the diagnostic on reject lands in @p error. */
    std::optional<SeedMapImage>
    openBytes(const std::string &bytes, const SeedMapOpenOptions &options,
              std::string *error)
    {
        return SeedMapImage::open(writeTemp(bytes, "img"), options, error);
    }

    /** open() must reject @p bytes with a diagnostic. */
    void
    expectRejected(const std::string &bytes, const std::string &what)
    {
        std::string error;
        EXPECT_FALSE(openBytes(bytes, {}, &error).has_value())
            << what << ": damaged image accepted";
        EXPECT_FALSE(error.empty())
            << what << ": rejected without a diagnostic";
    }

    /** Patch the image at @p offset and refresh the header checksum, so
        semantic validation (not the checksum) is what rejects. */
    std::string
    withPatchedHeader(std::size_t offset, const void *value,
                      std::size_t len)
    {
        std::string bytes = image_;
        std::memcpy(bytes.data() + offset, value, len);
        resealHeader(bytes);
        return bytes;
    }

    static void
    resealHeader(std::string &bytes)
    {
        writeAt(bytes, offsetof(SeedMapImageHeader, headerChecksum),
                util::xxh64(bytes.data(),
                            sizeof(SeedMapImageHeader) - sizeof(u64)));
    }

    /**
     * Recompute every checksum of @p bytes from its own directory: the
     * image an author with a broken writer would ship.
     */
    void
    reseal(std::string &bytes) const
    {
        auto sum = [&](u64 offset, u64 len) {
            return util::xxh64(bytes.data() + offset, len);
        };
        for (u32 s = 0; s < hdr_.shardCount; ++s) {
            const std::size_t at = hdr_.directoryOffset +
                                   std::size_t{ s } *
                                       sizeof(SeedMapShardDirEntry);
            auto ent = readAt<SeedMapShardDirEntry>(bytes, at);
            ent.seedTableChecksum = sum(ent.seedTableOffset,
                                        ent.seedTableEntries * sizeof(u32));
            ent.locationChecksum = sum(ent.locationOffset,
                                       ent.locationEntries * sizeof(u32));
            writeAt(bytes, at, ent);
        }
        auto fb = readAt<MinimizerDirEntry>(bytes, fallbackSlot());
        fb.hashesChecksum = sum(fb.hashesOffset, fb.hashCount * sizeof(u64));
        fb.offsetsChecksum =
            sum(fb.offsetsOffset, (fb.hashCount + 1) * sizeof(u64));
        fb.entriesChecksum =
            sum(fb.entriesOffset,
                fb.entryCount * sizeof(MinimizerIndex::Entry));
        writeAt(bytes, fallbackSlot(), fb);
        writeAt(bytes, offsetof(SeedMapImageHeader, directoryChecksum),
                sum(hdr_.directoryOffset,
                    std::size_t{ hdr_.shardCount + 1 } *
                        sizeof(SeedMapShardDirEntry)));
        resealHeader(bytes);
    }

    /**
     * A structurally bogus image must be rejected with @p needle in the
     * diagnostic both with payload verification off (the bytes as
     * patched) and on (the same bytes with every checksum resealed).
     */
    void
    expectStructuralReject(std::string bytes, const std::string &what,
                           const std::string &needle)
    {
        SeedMapOpenOptions noVerify;
        noVerify.verifyPayload = false;
        for (bool verify : { false, true }) {
            if (verify)
                reseal(bytes);
            std::string error;
            EXPECT_FALSE(openBytes(bytes, verify ? SeedMapOpenOptions{}
                                                 : noVerify,
                                   &error)
                             .has_value())
                << what << " accepted (verifyPayload=" << verify << ")";
            EXPECT_NE(error.find(needle), std::string::npos)
                << what << " (verifyPayload=" << verify << "): " << error;
        }
    }

    Reference ref_;
    std::unique_ptr<SeedMap> map_;
    std::unique_ptr<MinimizerIndex> fallback_;
    std::string image_;
    SeedMapImageHeader hdr_;
    MinimizerDirEntry fb_;
};

TEST_F(SeedMapFuzzTest, CleanImageRoundTrips)
{
    std::string error;
    auto opened = openBytes(image_, {}, &error);
    ASSERT_TRUE(opened.has_value()) << error;
    EXPECT_EQ(opened->shardCount(), kShards);
    EXPECT_EQ(opened->imageBytes(), image_.size());
    genpair::SeedMapView view = opened->view();
    const genomics::DnaSequence &chrom = ref_.chromosome(0);
    for (u64 p = 0; p + 50 <= chrom.size(); p += 137) {
        u32 h = map_->hashSeed(chrom.sub(p, 50));
        auto want = map_->lookup(h);
        auto got = view.lookup(h);
        ASSERT_EQ(want.size(), got.size()) << "position " << p;
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(want[i], got[i]);
    }
}

TEST_F(SeedMapFuzzTest, ServedFallbackIndexEqualsTheBuiltOne)
{
    std::string error;
    auto opened = openBytes(image_, {}, &error);
    ASSERT_TRUE(opened.has_value()) << error;
    const auto &served = opened->fallbackIndex();
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(served->params().k, fallback_->params().k);
    EXPECT_EQ(served->params().w, fallback_->params().w);
    EXPECT_EQ(served->params().maxOccurrences,
              fallback_->params().maxOccurrences);
    ASSERT_EQ(served->hashes().size(), fallback_->hashes().size());
    ASSERT_EQ(served->numEntries(), fallback_->numEntries());
    // Entry for entry, for every hash the built index holds, and empty
    // for the hashes between them.
    for (u64 h : fallback_->hashes()) {
        expectSameEntries(fallback_->lookup(h), served->lookup(h),
                          "hash " + std::to_string(h));
        EXPECT_EQ(served->lookup(h + 1).size(),
                  fallback_->lookup(h + 1).size());
    }
    EXPECT_TRUE(std::equal(served->offsets().begin(),
                           served->offsets().end(),
                           fallback_->offsets().begin()));

    // The served index outlives the image object: it shares the
    // mapping, so a driver holding it never dangles.
    auto keep = served;
    opened.reset();
    expectSameEntries(fallback_->lookup(fallback_->hashes()[3]),
                      keep->lookup(fallback_->hashes()[3]), "after reset");
}

TEST_F(SeedMapFuzzTest, ReferenceFingerprintBindsTheImage)
{
    SeedMapOpenOptions options;
    options.reference = &ref_;
    std::string error;
    EXPECT_TRUE(openBytes(image_, options, &error).has_value()) << error;

    // Another genome of the same length and shape.
    const Reference other = makeGenome(100);
    ASSERT_EQ(other.totalLength(), ref_.totalLength());
    options.reference = &other;
    EXPECT_FALSE(openBytes(image_, options, &error).has_value());
    EXPECT_NE(error.find("different reference"), std::string::npos)
        << error;
    EXPECT_NE(error.find("rebuild with gpx_index"), std::string::npos)
        << error;

    // Same bases, one chromosome renamed: SAM names would lie.
    Reference renamed;
    for (u32 c = 0; c < ref_.numChromosomes(); ++c)
        renamed.addChromosome(c == 1 ? "renamed" : ref_.name(c),
                              ref_.chromosome(c));
    options.reference = &renamed;
    EXPECT_FALSE(openBytes(image_, options, &error).has_value());
    EXPECT_NE(error.find("different reference"), std::string::npos)
        << error;
}

TEST_F(SeedMapFuzzTest, ImagesAreByteIdenticalAcrossBuildThreads)
{
    SeedMapParams sp;
    sp.tableBits = 12;
    const SeedMap serial = SeedMap::build(ref_, sp, 1);
    const SeedMap parallel = SeedMap::build(ref_, sp, 4);
    EXPECT_EQ(imageBytes(ref_, serial, kShards),
              imageBytes(ref_, parallel, kShards));
    EXPECT_EQ(imageBytes(ref_, serial, kShards), image_);
}

TEST_F(SeedMapFuzzTest, EveryHeaderByteBitFlipRejected)
{
    // The header checksum covers bytes [0, 120); flipping any bit there
    // breaks it, and flipping the checksum itself breaks the match.
    for (std::size_t off = 0; off < sizeof(SeedMapImageHeader); ++off) {
        std::string bytes = image_;
        bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
        expectRejected(bytes,
                       "header byte " + std::to_string(off) + " flipped");
    }
}

TEST_F(SeedMapFuzzTest, EveryDirectoryByteBitFlipRejected)
{
    // Shard entries and the fallback entry: one checksummed run.
    const std::size_t dirBegin = hdr_.directoryOffset;
    const std::size_t dirBytes = std::size_t{ hdr_.shardCount } *
                                     sizeof(SeedMapShardDirEntry) +
                                 sizeof(MinimizerDirEntry);
    for (std::size_t off = dirBegin; off < dirBegin + dirBytes; ++off) {
        std::string bytes = image_;
        bytes[off] = static_cast<char>(bytes[off] ^ 0x04);
        expectRejected(bytes, "directory byte " + std::to_string(off) +
                                  " flipped");
    }
}

TEST_F(SeedMapFuzzTest, TruncationAtEverySectionBoundaryRejected)
{
    // Section boundaries: header end, directory end, every shard's seed
    // table and location section start, the three fallback sections,
    // plus one byte short of EOF.
    std::vector<std::size_t> cuts = {
        0, 1, sizeof(u32), 2 * sizeof(u32), sizeof(SeedMapImageHeader)
    };
    cuts.push_back(fallbackSlot());
    cuts.push_back(fallbackSlot() + sizeof(MinimizerDirEntry));
    for (u32 s = 0; s < hdr_.shardCount; ++s) {
        cuts.push_back(shardEntry(s).seedTableOffset);
        cuts.push_back(shardEntry(s).locationOffset);
    }
    cuts.push_back(fb_.hashesOffset);
    cuts.push_back(fb_.offsetsOffset);
    cuts.push_back(fb_.entriesOffset);
    cuts.push_back(image_.size() - 1);

    for (std::size_t cut : cuts) {
        ASSERT_LT(cut, image_.size());
        expectRejected(image_.substr(0, cut),
                       "truncated at byte " + std::to_string(cut));
    }
}

TEST_F(SeedMapFuzzTest, EveryPayloadSectionCorruptionRejected)
{
    auto flipAt = [&](std::size_t at, const std::string &what) {
        std::string bytes = image_;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
        expectRejected(bytes, what + " corrupted");
    };
    for (u32 s = 0; s < hdr_.shardCount; ++s) {
        const SeedMapShardDirEntry ent = shardEntry(s);
        flipAt(ent.seedTableOffset + ent.seedTableEntries * 2,
               "shard " + std::to_string(s) + " seed table");
        if (ent.locationEntries > 0)
            flipAt(ent.locationOffset + ent.locationEntries * 2,
                   "shard " + std::to_string(s) + " location table");
    }
    flipAt(fb_.hashesOffset + fb_.hashCount * 4, "fallback hashes");
    flipAt(fb_.offsetsOffset + fb_.hashCount * 4, "fallback offsets");
    flipAt(fb_.entriesOffset + fb_.entryCount * 8, "fallback entries");
}

TEST_F(SeedMapFuzzTest, SemanticViolationsRejectedPastTheChecksum)
{
    // These patches keep the header checksum valid, so the *semantic*
    // validators — not the checksum — must reject.
    u32 three = 3; // not a power of two
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeader,
                                              shardCount),
                                     &three, sizeof(three)),
                   "shardCount=3");
    u32 bits = 31;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeader,
                                              tableBits),
                                     &bits, sizeof(bits)),
                   "tableBits=31");
    u32 seedLen = 4;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeader,
                                              seedLen),
                                     &seedLen, sizeof(seedLen)),
                   "seedLen=4");
    u32 k = 3;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeader,
                                              minimizerK),
                                     &k, sizeof(k)),
                   "minimizerK=3");
    u32 w = 0;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeader,
                                              minimizerW),
                                     &w, sizeof(w)),
                   "minimizerW=0");
    u64 wrongSize = image_.size() + genpair::kSeedMapSectionAlign;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeader,
                                              fileBytes),
                                     &wrongSize, sizeof(wrongSize)),
                   "fileBytes too large");
    u64 badDir = image_.size() + 64;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeader,
                                              directoryOffset),
                                     &badDir, sizeof(badDir)),
                   "directory beyond EOF");
}

TEST_F(SeedMapFuzzTest, GarbageAndWrongVersionsRejected)
{
    expectRejected(std::string(), "empty image");
    expectRejected(std::string("GPX"), "three bytes");
    expectRejected(std::string(4096, '\0'), "all zeros");
    expectRejected(std::string("not a seedmap image at all — just text"),
                   "text file");

    // v1 (stream) and v2 (fallback-less) images from older builds, and
    // a future version: a clean, actionable reject, not a misparse.
    for (u32 version : { 1u, 2u, 4u }) {
        std::string bytes = image_;
        writeAt(bytes, offsetof(SeedMapImageHeader, version), version);
        std::string error;
        EXPECT_FALSE(openBytes(bytes, {}, &error).has_value());
        EXPECT_NE(error.find("unsupported image version " +
                             std::to_string(version) +
                             "; rebuild with gpx_index"),
                  std::string::npos)
            << error;
    }
}

TEST_F(SeedMapFuzzTest, NonMonotoneCsrRejectedEvenWithValidChecksums)
{
    // The adversarial case checksums cannot catch: an *authored* image
    // whose checksums are all self-consistent but whose CSR is bogus.
    // An interior entry of 0xFFFFFFFF would turn the first unlucky
    // lookup() into an out-of-bounds span; the structural validator
    // must reject it at open time.
    std::string bytes = image_;
    const SeedMapShardDirEntry ent = shardEntry(0);
    writeAt(bytes,
            ent.seedTableOffset + (ent.seedTableEntries / 2) * sizeof(u32),
            0xFFFFFFFFu);
    expectStructuralReject(bytes, "non-monotone shard CSR", "monotone");
}

TEST_F(SeedMapFuzzTest, StructuralCsrChecksRunEvenWithoutPayloadVerify)
{
    // Shard 0's local CSR must start at 0.
    std::string bytes = image_;
    writeAt(bytes, shardEntry(0).seedTableOffset, u32{ 7 });
    expectStructuralReject(bytes, "shard CSR start", "CSR");
}

TEST_F(SeedMapFuzzTest, FallbackStructureRejectedEvenWithoutPayloadVerify)
{
    const std::size_t mid = fb_.hashCount / 2;
    auto offsetAt = [&](std::size_t i) {
        return fb_.offsetsOffset + i * sizeof(u64);
    };
    auto hashAt = [&](std::size_t i) {
        return fb_.hashesOffset + i * sizeof(u64);
    };
    {
        // An interior offset stepping back below its predecessor.
        std::string bytes = image_;
        writeAt(bytes, offsetAt(mid),
                readAt<u64>(image_, offsetAt(mid - 1)) - 1);
        expectStructuralReject(bytes, "non-monotone offsets", "monotone");
    }
    {
        // An interior offset past the entry count.
        std::string bytes = image_;
        writeAt(bytes, offsetAt(mid), u64{ fb_.entryCount + 1000 });
        expectStructuralReject(bytes, "offset past the entries",
                               "monotone");
    }
    {
        // The sentinel offset past the entry count.
        std::string bytes = image_;
        writeAt(bytes, offsetAt(fb_.hashCount), u64{ fb_.entryCount + 1 });
        expectStructuralReject(bytes, "sentinel past the entries",
                               "do not cover");
    }
    {
        // Two adjacent hashes swapped: unsorted.
        std::string bytes = image_;
        const u64 a = readAt<u64>(image_, hashAt(mid));
        const u64 b = readAt<u64>(image_, hashAt(mid + 1));
        writeAt(bytes, hashAt(mid), b);
        writeAt(bytes, hashAt(mid + 1), a);
        expectStructuralReject(bytes, "unsorted hashes", "sorted");
    }
    {
        // A duplicated hash: lookups would silently miss a range.
        std::string bytes = image_;
        writeAt(bytes, hashAt(mid + 1), readAt<u64>(image_, hashAt(mid)));
        expectStructuralReject(bytes, "duplicate hash", "sorted");
    }
    {
        // An entry positioned past the end of the reference.
        std::string bytes = image_;
        writeAt(bytes,
                fb_.entriesOffset +
                    (fb_.entryCount / 2) * sizeof(MinimizerIndex::Entry),
                u64{ hdr_.referenceLength });
        expectStructuralReject(bytes, "entry past the reference",
                               "past the reference");
    }
    {
        // Nonzero padding after the strand byte.
        std::string bytes = image_;
        bytes[fb_.entriesOffset + 9] = 1;
        expectStructuralReject(bytes, "entry padding", "strand");
    }
}

TEST_F(SeedMapFuzzTest, SkippingPayloadVerifyStillServesCleanImages)
{
    SeedMapOpenOptions opts;
    opts.verifyPayload = false;
    std::string error;
    auto opened = openBytes(image_, opts, &error);
    ASSERT_TRUE(opened.has_value()) << error;
    u32 h = map_->hashSeed(ref_.chromosome(0).sub(100, 50));
    auto want = map_->lookup(h);
    auto got = opened->view().lookup(h);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(want[i], got[i]);
    const u64 hash = fallback_->hashes()[7];
    expectSameEntries(fallback_->lookup(hash),
                      opened->fallbackIndex()->lookup(hash), "no verify");
}

TEST_F(SeedMapFuzzTest, SingleShardAndManyShardImagesAgree)
{
    for (u32 shards : { 1u, 2u, 16u }) {
        std::string error;
        auto opened =
            openBytes(imageBytes(ref_, *map_, shards), {}, &error);
        ASSERT_TRUE(opened.has_value()) << error;
        EXPECT_EQ(opened->shardCount(), shards);
        const genomics::DnaSequence &chrom = ref_.chromosome(0);
        for (u64 p = 0; p + 50 <= chrom.size(); p += 173) {
            u32 h = map_->hashSeed(chrom.sub(p, 50));
            auto want = map_->lookup(h);
            auto got = opened->view().lookup(h);
            ASSERT_EQ(want.size(), got.size())
                << shards << " shards, position " << p;
            for (std::size_t i = 0; i < want.size(); ++i)
                EXPECT_EQ(want[i], got[i]);
        }
    }
}

} // namespace
