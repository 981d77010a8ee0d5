/**
 * @file
 * End-to-end tests for the serving stack behind gpx_serve: protocol
 * encode/decode round trips, a live ServeServer on a Unix socket
 * mapping the golden corpus bit-identically to gpx_map (pinned md5),
 * concurrent clients, the request-scoped error taxonomy (bad FASTQ and
 * unknown mounts must NOT kill the connection, let alone the daemon),
 * and a doc-constants check that keeps docs/serve_protocol.md in
 * lockstep with src/serve/protocol.hh.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "genpair/seedmap.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/gzip_stream.hh"
#include "util/md5.hh"

namespace {

using namespace gpx;

/** Same pinned digest as test_golden_corpus.cc: serving must never
 *  move the bits. */
const char kGoldenSamMd5[] = "6e4b292bd35bc3babd6ffd733c44612f";

const char *
goldenDir()
{
#ifdef GPX_GOLDEN_DIR
    return GPX_GOLDEN_DIR;
#else
    return "tests/data/golden";
#endif
}

const char *
docsDir()
{
#ifdef GPX_DOCS_DIR
    return GPX_DOCS_DIR;
#else
    return "docs";
#endif
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "cannot open " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/**
 * True when @p text is exactly one JSON value (RFC 8259 grammar); a
 * validator, not a parser, for the STATS documents the server writes.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        return value() && (skipSpace(), i_ == s_.size());
    }

  private:
    void
    skipSpace()
    {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                                  s_[i_] == '\n' || s_[i_] == '\r'))
            ++i_;
    }

    bool
    eat(char c)
    {
        skipSpace();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    word(const char *w)
    {
        const std::string_view want(w);
        if (s_.compare(i_, want.size(), want) != 0)
            return false;
        i_ += want.size();
        return true;
    }

    bool
    value()
    {
        skipSpace();
        if (i_ == s_.size())
            return false;
        switch (s_[i_]) {
        case '{': return members('}', true);
        case '[': return members(']', false);
        case '"': return string();
        case 't': return word("true");
        case 'f': return word("false");
        case 'n': return word("null");
        default: return number();
        }
    }

    /** An object (@p keyed) or array body up to @p close. */
    bool
    members(char close, bool keyed)
    {
        ++i_;
        if (eat(close))
            return true;
        do {
            if (keyed) {
                skipSpace();
                if (!string() || !eat(':'))
                    return false;
            }
            if (!value())
                return false;
        } while (eat(','));
        return eat(close);
    }

    bool
    string()
    {
        if (i_ == s_.size() || s_[i_] != '"')
            return false;
        for (++i_; i_ < s_.size(); ++i_) {
            const unsigned char c = static_cast<unsigned char>(s_[i_]);
            if (c == '"') {
                ++i_;
                return true;
            }
            if (c < 0x20)
                return false;
            if (c != '\\')
                continue;
            if (++i_ == s_.size())
                return false;
            if (s_[i_] == 'u') {
                for (int h = 0; h < 4; ++h)
                    if (++i_ == s_.size() || !std::isxdigit(
                                                static_cast<unsigned char>(
                                                    s_[i_])))
                        return false;
            } else if (std::string_view("\"\\/bfnrt").find(s_[i_]) ==
                       std::string_view::npos) {
                return false;
            }
        }
        return false;
    }

    bool
    digits()
    {
        const std::size_t from = i_;
        while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(
                                     s_[i_])))
            ++i_;
        return i_ > from;
    }

    bool
    number()
    {
        if (s_[i_] == '-')
            ++i_;
        if (!digits())
            return false;
        if (i_ < s_.size() && s_[i_] == '.' && (++i_, !digits()))
            return false;
        if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
            ++i_;
            if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-'))
                ++i_;
            return digits();
        }
        return true;
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

TEST(JsonChecker, AcceptsAndRejects)
{
    for (const char *ok : { "{}", "[1, -2.5e3, true, null]",
                            "{\"a\\\"b\": {\"c\": [\"\\u00e9\"]}}" })
        EXPECT_TRUE(JsonChecker(ok).valid()) << ok;
    for (const char *bad : { "{", "{\"a\": 1,}", "{\"a\"b\": 1}",
                             "{\"a\\c\": 1}", "[1x]", "\"tab\t\"" })
        EXPECT_FALSE(JsonChecker(bad).valid()) << bad;
}

// ---------------------------------------------------------------------
// Protocol payload round trips
// ---------------------------------------------------------------------

TEST(ServeProtocol, HelloRoundTrip)
{
    serve::HelloBody body;
    body.mounts = { "golden", "hg38" };
    serve::HelloBody out;
    ASSERT_TRUE(serve::decodeHello(serve::encodeHello(body), &out));
    EXPECT_EQ(out.magic, serve::kProtoMagic);
    EXPECT_EQ(out.version, serve::kProtoVersion);
    EXPECT_EQ(out.mounts, body.mounts);
}

TEST(ServeProtocol, MapRequestRoundTrip)
{
    serve::MapRequestBody body;
    body.requestId = 42;
    body.flags = serve::kMapWantStats;
    body.refName = "golden";
    body.r1Fastq = "@r1\nACGT\n+\nIIII\n";
    body.r2Fastq = "@r1\nTTGG\n+\nIIII\n";
    serve::MapRequestBody out;
    ASSERT_TRUE(
        serve::decodeMapRequest(serve::encodeMapRequest(body), &out));
    EXPECT_EQ(out.requestId, 42u);
    EXPECT_EQ(out.flags, serve::kMapWantStats);
    EXPECT_EQ(out.refName, "golden");
    EXPECT_EQ(out.r1Fastq, body.r1Fastq);
    EXPECT_EQ(out.r2Fastq, body.r2Fastq);
}

TEST(ServeProtocol, MapReplyRoundTrip)
{
    serve::MapReplyBody body;
    body.requestId = 7;
    body.pairCount = 300;
    body.sam = "r1\t99\tchr1\t100\t60\t...\n";
    body.statsJson = "{\"pairs_total\": 300}";
    serve::MapReplyBody out;
    ASSERT_TRUE(serve::decodeMapReply(serve::encodeMapReply(body), &out));
    EXPECT_EQ(out.requestId, 7u);
    EXPECT_EQ(out.pairCount, 300u);
    EXPECT_EQ(out.sam, body.sam);
    EXPECT_EQ(out.statsJson, body.statsJson);
}

TEST(ServeProtocol, ErrorRoundTrip)
{
    serve::ErrorBody body;
    body.requestId = 9;
    body.code = serve::kErrBadFastq;
    body.message = "R1: truncated FASTQ record";
    serve::ErrorBody out;
    ASSERT_TRUE(serve::decodeError(serve::encodeError(body), &out));
    EXPECT_EQ(out.requestId, 9u);
    EXPECT_EQ(out.code, serve::kErrBadFastq);
    EXPECT_EQ(out.message, body.message);
}

TEST(ServeProtocol, DecodeRejectsTruncatedPayload)
{
    serve::MapRequestBody body;
    body.requestId = 1;
    body.refName = "golden";
    body.r1Fastq = "@r1\nACGT\n+\nIIII\n";
    body.r2Fastq = body.r1Fastq;
    std::vector<u8> wire = serve::encodeMapRequest(body);
    // Every proper prefix must decode to a clean failure, never a
    // crash or an accidental success on garbage.
    for (std::size_t len = 0; len < wire.size(); ++len) {
        std::vector<u8> cut(wire.begin(),
                            wire.begin() + static_cast<long>(len));
        serve::MapRequestBody out;
        EXPECT_FALSE(serve::decodeMapRequest(cut, &out))
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(ServeProtocol, DecodeRejectsTrailingGarbage)
{
    serve::ErrorBody body;
    body.code = serve::kErrBadFrame;
    std::vector<u8> wire = serve::encodeError(body);
    wire.push_back(0xAB);
    serve::ErrorBody out;
    EXPECT_FALSE(serve::decodeError(wire, &out));
}

// ---------------------------------------------------------------------
// Doc-constants: docs/serve_protocol.md must match protocol.hh
// ---------------------------------------------------------------------

/** True iff some line of @p doc contains both `name` and `value`
 *  rendered as inline code. */
bool
docHasRow(const std::string &doc, const std::string &name,
          const std::string &value)
{
    const std::string n = "`" + name + "`";
    const std::string v = "`" + value + "`";
    std::istringstream is(doc);
    std::string line;
    while (std::getline(is, line))
        if (line.find(n) != std::string::npos &&
            line.find(v) != std::string::npos)
            return true;
    return false;
}

std::string
hex(u32 v, int width)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%0*X", width, v);
    return buf;
}

TEST(ServeProtocol, DocConstantsMatchHeader)
{
    std::string doc =
        slurp(std::string(docsDir()) + "/serve_protocol.md");
    ASSERT_FALSE(doc.empty());

    EXPECT_TRUE(docHasRow(doc, "kProtoMagic",
                          hex(serve::kProtoMagic, 8)));
    EXPECT_TRUE(docHasRow(doc, "kProtoVersion",
                          std::to_string(serve::kProtoVersion)));
    EXPECT_TRUE(docHasRow(doc, "kDefaultMaxFrameBytes",
                          std::to_string(serve::kDefaultMaxFrameBytes)));
    EXPECT_TRUE(
        docHasRow(doc, "kDefaultMaxPairsPerRequest",
                  std::to_string(serve::kDefaultMaxPairsPerRequest)));

    const std::pair<const char *, u8> frameTypes[] = {
        { "kHelloRequest", serve::kHelloRequest },
        { "kHelloReply", serve::kHelloReply },
        { "kMapRequest", serve::kMapRequest },
        { "kMapReply", serve::kMapReply },
        { "kHeaderRequest", serve::kHeaderRequest },
        { "kHeaderReply", serve::kHeaderReply },
        { "kStatsRequest", serve::kStatsRequest },
        { "kStatsReply", serve::kStatsReply },
        { "kShutdownRequest", serve::kShutdownRequest },
        { "kShutdownReply", serve::kShutdownReply },
        { "kRefreshRequest", serve::kRefreshRequest },
        { "kRefreshReply", serve::kRefreshReply },
        { "kErrorReply", serve::kErrorReply },
    };
    for (const auto &[name, value] : frameTypes)
        EXPECT_TRUE(docHasRow(doc, name, hex(value, 2)))
            << name << " = " << hex(value, 2) << " missing from doc";

    const std::pair<const char *, u16> errorCodes[] = {
        { "kErrBadMagic", serve::kErrBadMagic },
        { "kErrBadVersion", serve::kErrBadVersion },
        { "kErrBadFrame", serve::kErrBadFrame },
        { "kErrUnknownReference", serve::kErrUnknownReference },
        { "kErrBadFastq", serve::kErrBadFastq },
        { "kErrTooLarge", serve::kErrTooLarge },
        { "kErrDraining", serve::kErrDraining },
        { "kErrDeadline", serve::kErrDeadline },
        { "kErrOverloaded", serve::kErrOverloaded },
        { "kErrRefreshFailed", serve::kErrRefreshFailed },
        { "kErrIoFault", serve::kErrIoFault },
    };
    for (const auto &[name, value] : errorCodes)
        EXPECT_TRUE(docHasRow(doc, name, std::to_string(value)))
            << name << " = " << value << " missing from doc";

    // The doc promises the golden digest; keep that promise pinned too.
    EXPECT_NE(doc.find(kGoldenSamMd5), std::string::npos);
}

// ---------------------------------------------------------------------
// Live server over the golden corpus
// ---------------------------------------------------------------------

class ServeGoldenTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string dir = goldenDir();
        std::ifstream refFile(dir + "/ref.fa");
        ASSERT_TRUE(refFile) << "missing golden reference in " << dir;
        ref_ = genomics::readFasta(refFile);
        ASSERT_GT(ref_.totalLength(), 0u);

        std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
        ASSERT_TRUE(r1 && r2);
        reads1_ = genomics::readFastq(r1);
        reads2_ = genomics::readFastq(r2);
        ASSERT_EQ(reads1_.size(), reads2_.size());
        ASSERT_GT(reads1_.size(), 0u);

        // Pinned golden index parameters (see test_golden_corpus.cc).
        genpair::SeedMapParams params;
        params.seedLen = 50;
        params.tableBits = 18;
        params.filterThreshold = 500;
        map_ = std::make_unique<genpair::SeedMap>(ref_, params);
    }

    /** Start the daemon on a Unix socket in the test temp dir. */
    void
    startServer(u32 threads = 2, u32 admission_slots = 2,
                u32 max_pairs = serve::kDefaultMaxPairsPerRequest,
                u32 io_threads = 1, u32 chunk_pairs = 1024)
    {
        socketPath_ = ::testing::TempDir() + "gpx_serve_test.sock";
        serve::MountSpec spec;
        spec.name = mountName_;
        spec.ref = &ref_;
        spec.view = *map_;
        serve::ServeConfig config;
        config.socketPath = socketPath_;
        config.threads = threads;
        config.admissionSlots = admission_slots;
        config.maxPairsPerRequest = max_pairs;
        config.ioThreads = io_threads;
        config.chunkPairs = chunk_pairs;
        server_ = std::make_unique<serve::ServeServer>(
            std::vector<serve::MountSpec>{ spec }, config);
        std::string error;
        ASSERT_TRUE(server_->start(&error)) << error;
    }

    serve::ServeClient
    connect()
    {
        std::string error;
        auto client = serve::ServeClient::connectUnix(socketPath_, &error);
        EXPECT_TRUE(client.has_value()) << error;
        return std::move(*client);
    }

    /** FASTQ text of pairs [begin, end) for one side. */
    std::string
    fastqSlice(const std::vector<genomics::Read> &reads, std::size_t begin,
               std::size_t end) const
    {
        std::vector<genomics::Read> slice(reads.begin() + begin,
                                          reads.begin() + end);
        std::ostringstream os;
        genomics::writeFastq(os, slice);
        return os.str();
    }

    /**
     * Map the whole corpus through @p client in batches of
     * @p batch_pairs and return the md5 of header + records — the same
     * document a gpx_map run over the corpus writes.
     */
    std::string
    mapCorpus(serve::ServeClient &client, std::size_t batch_pairs)
    {
        std::string doc;
        auto status = client.fetchHeader("", &doc);
        EXPECT_TRUE(status.ok) << status.describe();
        for (std::size_t i = 0; i < reads1_.size(); i += batch_pairs) {
            std::size_t end =
                std::min(i + batch_pairs, reads1_.size());
            serve::MapReplyBody reply;
            status = client.mapBatch("golden", fastqSlice(reads1_, i, end),
                                     fastqSlice(reads2_, i, end), false,
                                     &reply);
            EXPECT_TRUE(status.ok) << status.describe();
            EXPECT_EQ(reply.pairCount, end - i);
            doc += reply.sam;
        }
        return util::md5Hex(doc);
    }

    genomics::Reference ref_;
    std::vector<genomics::Read> reads1_, reads2_;
    std::unique_ptr<genpair::SeedMap> map_;
    std::unique_ptr<serve::ServeServer> server_;
    std::string socketPath_;
    std::string mountName_ = "golden"; ///< startServer()'s one mount
};

TEST_F(ServeGoldenTest, HelloAnnouncesMounts)
{
    startServer();
    auto client = connect();
    ASSERT_EQ(client.mounts().size(), 1u);
    EXPECT_EQ(client.mounts()[0], "golden");
}

TEST_F(ServeGoldenTest, SingleClientReproducesPinnedDigest)
{
    startServer();
    auto client = connect();
    EXPECT_EQ(mapCorpus(client, 64), kGoldenSamMd5);

    serve::ServeCounters counters = server_->counters();
    EXPECT_EQ(counters.pairsMapped, reads1_.size());
    EXPECT_EQ(counters.requestsRejected, 0u);
    EXPECT_GT(counters.samBytesSent, 0u);
}

TEST_F(ServeGoldenTest, EmptyRefNameRoutesToSoleMount)
{
    startServer();
    auto client = connect();
    serve::MapReplyBody reply;
    auto status =
        client.mapBatch("", fastqSlice(reads1_, 0, 4),
                        fastqSlice(reads2_, 0, 4), false, &reply);
    ASSERT_TRUE(status.ok) << status.describe();
    EXPECT_EQ(reply.pairCount, 4u);
}

TEST_F(ServeGoldenTest, ConcurrentClientsEachReproducePinnedDigest)
{
    // Three connections interleaving small batches over one shared
    // pool: per-connection replies must stay input-ordered, so every
    // client independently assembles the pinned document. This is the
    // test TSan runs against the full serve stack.
    startServer(/*threads=*/2, /*admission_slots=*/2);
    constexpr int kClients = 3;
    std::vector<std::string> digests(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([this, c, &digests]() {
            auto client = connect();
            // Different batch sizes per client so request boundaries
            // never line up across connections.
            digests[static_cast<std::size_t>(c)] =
                mapCorpus(client, 32 + 17 * static_cast<std::size_t>(c));
        });
    for (auto &t : threads)
        t.join();
    for (const auto &digest : digests)
        EXPECT_EQ(digest, kGoldenSamMd5);

    serve::ServeCounters counters = server_->counters();
    EXPECT_EQ(counters.pairsMapped, kClients * reads1_.size());
    EXPECT_EQ(counters.connectionsAccepted, 3u);
}

TEST_F(ServeGoldenTest, SpineConfigReproducesPinnedDigestOverSocket)
{
    // Force every request through the full multi-queue spine: 16-pair
    // chunks make each 64-pair batch span 4 sequence-numbered chunks,
    // 2 parser threads race the reorder buffer, and 2 connections
    // share the mount's pool. Bits must not move, and the aggregate
    // stall counters must surface in the STATS frame.
    startServer(/*threads=*/2, /*admission_slots=*/2,
                serve::kDefaultMaxPairsPerRequest, /*io_threads=*/2,
                /*chunk_pairs=*/16);
    std::vector<std::string> digests(2);
    std::vector<std::thread> threads;
    for (int c = 0; c < 2; ++c)
        threads.emplace_back([this, c, &digests]() {
            auto client = connect();
            digests[static_cast<std::size_t>(c)] =
                mapCorpus(client, 64 + 13 * static_cast<std::size_t>(c));
        });
    for (auto &t : threads)
        t.join();
    for (const auto &digest : digests)
        EXPECT_EQ(digest, kGoldenSamMd5);

    serve::ServeCounters counters = server_->counters();
    EXPECT_EQ(counters.pairsMapped, 2 * reads1_.size());
    EXPECT_GE(counters.readerStallSeconds, 0.0);
    EXPECT_GE(counters.writerStallSeconds, 0.0);

    auto client = connect();
    std::string json;
    auto status = client.fetchStats(&json);
    ASSERT_TRUE(status.ok) << status.describe();
    EXPECT_NE(json.find("\"reader_stall_seconds\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"writer_stall_seconds\""), std::string::npos)
        << json;
}

TEST_F(ServeGoldenTest, GzipRequestPayloadReproducesPinnedDigest)
{
    // A client may ship its FASTQ batches gzip-compressed; the sniffing
    // ingest path must decode them to the same pinned bits.
    if (!util::gzipSupported())
        GTEST_SKIP() << "built without zlib";
    startServer(/*threads=*/2, /*admission_slots=*/2,
                serve::kDefaultMaxPairsPerRequest, /*io_threads=*/2,
                /*chunk_pairs=*/16);
    auto client = connect();
    std::string doc;
    auto status = client.fetchHeader("", &doc);
    ASSERT_TRUE(status.ok) << status.describe();
    constexpr std::size_t kBatch = 64;
    for (std::size_t i = 0; i < reads1_.size(); i += kBatch) {
        std::size_t end = std::min(i + kBatch, reads1_.size());
        serve::MapReplyBody reply;
        status = client.mapBatch(
            "golden", util::gzipCompress(fastqSlice(reads1_, i, end)),
            util::gzipCompress(fastqSlice(reads2_, i, end)), false,
            &reply);
        ASSERT_TRUE(status.ok) << status.describe();
        EXPECT_EQ(reply.pairCount, end - i);
        doc += reply.sam;
    }
    EXPECT_EQ(util::md5Hex(doc), kGoldenSamMd5);
}

TEST_F(ServeGoldenTest, PerRequestStatsJsonAttached)
{
    startServer();
    auto client = connect();
    serve::MapReplyBody reply;
    auto status =
        client.mapBatch("golden", fastqSlice(reads1_, 0, 8),
                        fastqSlice(reads2_, 0, 8), true, &reply);
    ASSERT_TRUE(status.ok) << status.describe();
    EXPECT_NE(reply.statsJson.find("\"pairs_total\": 8"),
              std::string::npos)
        << reply.statsJson;
}

TEST_F(ServeGoldenTest, MalformedFastqRejectedConnectionSurvives)
{
    startServer();
    auto client = connect();

    // Truncated record: quality line missing.
    serve::MapReplyBody reply;
    auto status = client.mapBatch("golden", "@r1\nACGT\n+\n",
                                  "@r1\nTTGG\n+\nIIII\n", false, &reply);
    ASSERT_FALSE(status.ok);
    ASSERT_TRUE(status.errorFrame.has_value()) << status.describe();
    EXPECT_EQ(status.errorFrame->code, serve::kErrBadFastq);
    EXPECT_NE(status.errorFrame->message.find("truncated FASTQ record"),
              std::string::npos)
        << status.errorFrame->message;

    // Malformed header on the R2 side.
    status = client.mapBatch("golden", "@r1\nACGT\n+\nIIII\n",
                             "no header\nACGT\n+\nIIII\n", false, &reply);
    ASSERT_FALSE(status.ok);
    ASSERT_TRUE(status.errorFrame.has_value());
    EXPECT_EQ(status.errorFrame->code, serve::kErrBadFastq);
    EXPECT_NE(status.errorFrame->message.find("R2:"), std::string::npos);

    // R1/R2 record-count mismatch.
    status = client.mapBatch(
        "golden", "@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\nIIII\n",
        "@r1\nTTGG\n+\nIIII\n", false, &reply);
    ASSERT_FALSE(status.ok);
    ASSERT_TRUE(status.errorFrame.has_value());
    EXPECT_EQ(status.errorFrame->code, serve::kErrBadFastq);

    // The connection (and the daemon) survived all three rejections:
    // the same client still maps the full corpus to the pinned bits.
    EXPECT_EQ(mapCorpus(client, 128), kGoldenSamMd5);
    EXPECT_EQ(server_->counters().requestsRejected, 3u);
}

TEST_F(ServeGoldenTest, UnknownReferenceRejectedConnectionSurvives)
{
    startServer();
    auto client = connect();
    serve::MapReplyBody reply;
    auto status =
        client.mapBatch("hg39", fastqSlice(reads1_, 0, 2),
                        fastqSlice(reads2_, 0, 2), false, &reply);
    ASSERT_FALSE(status.ok);
    ASSERT_TRUE(status.errorFrame.has_value()) << status.describe();
    EXPECT_EQ(status.errorFrame->code, serve::kErrUnknownReference);

    status = client.mapBatch("golden", fastqSlice(reads1_, 0, 2),
                             fastqSlice(reads2_, 0, 2), false, &reply);
    EXPECT_TRUE(status.ok) << status.describe();
}

TEST_F(ServeGoldenTest, OversizeBatchRejected)
{
    startServer(/*threads=*/2, /*admission_slots=*/2, /*max_pairs=*/8);
    auto client = connect();
    serve::MapReplyBody reply;
    auto status =
        client.mapBatch("golden", fastqSlice(reads1_, 0, 9),
                        fastqSlice(reads2_, 0, 9), false, &reply);
    ASSERT_FALSE(status.ok);
    ASSERT_TRUE(status.errorFrame.has_value()) << status.describe();
    EXPECT_EQ(status.errorFrame->code, serve::kErrTooLarge);
}

TEST_F(ServeGoldenTest, StatsFrameAggregatesServedRequests)
{
    startServer();
    auto client = connect();
    serve::MapReplyBody reply;
    auto status =
        client.mapBatch("golden", fastqSlice(reads1_, 0, 16),
                        fastqSlice(reads2_, 0, 16), false, &reply);
    ASSERT_TRUE(status.ok) << status.describe();

    std::string json;
    status = client.fetchStats(&json);
    ASSERT_TRUE(status.ok) << status.describe();
    EXPECT_NE(json.find("\"pairs_mapped\": 16"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"golden\""), std::string::npos);
    EXPECT_NE(json.find("\"requests_served\": 1"), std::string::npos);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST_F(ServeGoldenTest, StatsJsonEscapesMountNames)
{
    // Mount names come from the command line (--mount REF:INDEX:NAME);
    // a quote or backslash in one must not break the STATS document.
    mountName_ = "a\"b\\c";
    startServer();
    auto client = connect();
    std::string json;
    auto status = client.fetchStats(&json);
    ASSERT_TRUE(status.ok) << status.describe();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"a\\\"b\\\\c\": {"), std::string::npos)
        << json;
}

TEST_F(ServeGoldenTest, ClientKilledMidRequestPayload)
{
    // A client that dies after sending half a MAP payload must cost
    // the server nothing but that one connection: the handler sees a
    // short read, closes, and every other connection still maps the
    // corpus to the pinned bits.
    startServer();
    {
        std::string error;
        auto raw = util::connectUnix(socketPath_, &error);
        ASSERT_TRUE(raw.has_value()) << error;
        ASSERT_TRUE(serve::writeFrame(*raw, serve::kHelloRequest,
                                      serve::encodeHello({})));
        serve::Frame hello;
        ASSERT_EQ(serve::readFrame(*raw, &hello),
                  serve::FrameRead::kFrame);

        serve::MapRequestBody req;
        req.requestId = 1;
        req.refName = "golden";
        req.r1Fastq = fastqSlice(reads1_, 0, 32);
        req.r2Fastq = fastqSlice(reads2_, 0, 32);
        std::vector<u8> payload = serve::encodeMapRequest(req);
        std::vector<u8> wire;
        serve::putU32(wire, static_cast<u32>(payload.size() + 1));
        wire.push_back(serve::kMapRequest);
        wire.insert(wire.end(), payload.begin(), payload.end());
        // Half the frame, then die.
        ASSERT_TRUE(raw->writeExact(wire.data(), wire.size() / 2));
        raw->close();
    }
    auto client = connect();
    EXPECT_EQ(mapCorpus(client, 64), kGoldenSamMd5);
}

TEST_F(ServeGoldenTest, ClientKilledMidReply)
{
    // The mirror image: the client sends a complete MAP request, reads
    // half the reply, and dies. The server's reply write fails (or is
    // discarded by the kernel); only that connection is affected.
    startServer();
    {
        std::string error;
        auto raw = util::connectUnix(socketPath_, &error);
        ASSERT_TRUE(raw.has_value()) << error;
        ASSERT_TRUE(serve::writeFrame(*raw, serve::kHelloRequest,
                                      serve::encodeHello({})));
        serve::Frame hello;
        ASSERT_EQ(serve::readFrame(*raw, &hello),
                  serve::FrameRead::kFrame);

        serve::MapRequestBody req;
        req.requestId = 2;
        req.refName = "golden";
        req.r1Fastq = fastqSlice(reads1_, 0, 64);
        req.r2Fastq = fastqSlice(reads2_, 0, 64);
        ASSERT_TRUE(serve::writeFrame(*raw, serve::kMapRequest,
                                      serve::encodeMapRequest(req)));
        // Read just the reply's length prefix + type, then vanish with
        // the rest of the reply still in flight.
        u8 partial[5];
        ASSERT_TRUE(raw->readExact(partial, sizeof partial));
        raw->close();
    }
    auto client = connect();
    EXPECT_EQ(mapCorpus(client, 64), kGoldenSamMd5);
}

TEST_F(ServeGoldenTest, ShutdownFrameDrainsServer)
{
    startServer();
    auto client = connect();
    auto status = client.shutdownServer();
    EXPECT_TRUE(status.ok) << status.describe();
    // Must return (not hang) now that a client asked for the drain.
    server_->waitUntilDrained();
    std::string error;
    EXPECT_FALSE(
        serve::ServeClient::connectUnix(socketPath_, &error).has_value());
}

} // namespace
