/**
 * @file
 * The robustness wall: fault-injection unit tests plus the chaos
 * suites that prove the recovery code is live code.
 *
 * Everything here runs faults *programmatically* (configure/reset per
 * test, destructive actions included); the CI chaos job additionally
 * sweeps GPX_FAULTS delay-plans over the normal suites, where golden
 * assertions must keep passing. scripts/check_fault_wall.py holds this
 * file, the injection call sites and the registry in
 * src/util/fault.cc to one contract.
 *
 * The heavyweight member is the hot-swap chaos test: concurrent
 * clients map the golden corpus through a live daemon while the
 * mount's index image is re-published underneath them — including one
 * deliberately corrupted candidate that must be rejected before
 * publish — and every reply must still assemble the pinned digest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/mman.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "genpair/seedmap.hh"
#include "genpair/seedmap_io.hh"
#include "genpair/streaming.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "simdata/genome_generator.hh"
#include "util/channel.hh"
#include "util/fault.hh"
#include "util/md5.hh"
#include "util/sigbus_guard.hh"
#include "util/socket.hh"

namespace {

using namespace gpx;

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

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "cannot open " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Every test leaves the process-wide injector disarmed. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::FaultInjector::instance().reset(); }
    void TearDown() override { util::FaultInjector::instance().reset(); }

    bool
    arm(const std::string &plan, u64 seed = 0)
    {
        std::string error;
        bool ok = util::FaultInjector::instance().configure(plan, seed,
                                                            &error);
        EXPECT_TRUE(ok) << error;
        return ok;
    }
};

// ---------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------

TEST_F(FaultTest, DisarmedIsInvisible)
{
    EXPECT_FALSE(util::FaultInjector::armed());
    EXPECT_FALSE(util::checkFault("socket.read"));
    EXPECT_FALSE(util::checkFaultBytes("sam.write", 1 << 20));
    // Disarmed evaluations are not even counted (the fast path never
    // reaches the injector).
    EXPECT_EQ(util::FaultInjector::instance().evaluations("socket.read"),
              0u);
}

TEST_F(FaultTest, RejectsUnknownPointAndBadSyntax)
{
    auto &inj = util::FaultInjector::instance();
    std::string error;
    EXPECT_FALSE(inj.configure("socket.wrote:fail", 0, &error));
    EXPECT_NE(error.find("unknown injection point"), std::string::npos)
        << error;
    EXPECT_FALSE(inj.configure("socket.read", 0, &error));
    EXPECT_FALSE(inj.configure("socket.read:explode", 0, &error));
    EXPECT_NE(error.find("unknown action"), std::string::npos) << error;
    EXPECT_FALSE(inj.configure("socket.read:fail@p=1.5", 0, &error));
    EXPECT_FALSE(inj.configure("socket.read:fail@every=0", 0, &error));
    EXPECT_FALSE(inj.configure("chan.push:delay=abc", 0, &error));
    // A failed configure leaves the injector disarmed.
    EXPECT_FALSE(util::FaultInjector::armed());
}

TEST_F(FaultTest, ActionsMapToHitKinds)
{
    arm("socket.write:short,sam.write:enospc,socket.read:fail");
    auto hit = util::checkFault("socket.write");
    EXPECT_EQ(hit.kind, util::FaultHit::kShort);
    hit = util::checkFault("sam.write");
    EXPECT_EQ(hit.kind, util::FaultHit::kErrno);
    EXPECT_EQ(hit.value, static_cast<u64>(ENOSPC));
    hit = util::checkFault("socket.read");
    EXPECT_EQ(hit.kind, util::FaultHit::kFail);
}

TEST_F(FaultTest, CountTriggers)
{
    arm("socket.read:fail@nth=3,socket.write:fail@every=2,"
        "sam.write:fail@once");
    // nth=3: exactly the third evaluation.
    EXPECT_FALSE(util::checkFault("socket.read"));
    EXPECT_FALSE(util::checkFault("socket.read"));
    EXPECT_TRUE(util::checkFault("socket.read"));
    EXPECT_FALSE(util::checkFault("socket.read"));
    // every=2: evaluations 2, 4, 6, ...
    EXPECT_FALSE(util::checkFault("socket.write"));
    EXPECT_TRUE(util::checkFault("socket.write"));
    EXPECT_FALSE(util::checkFault("socket.write"));
    EXPECT_TRUE(util::checkFault("socket.write"));
    // once: first evaluation only.
    EXPECT_TRUE(util::checkFault("sam.write"));
    EXPECT_FALSE(util::checkFault("sam.write"));

    auto &inj = util::FaultInjector::instance();
    EXPECT_EQ(inj.fires("socket.read"), 1u);
    EXPECT_EQ(inj.fires("socket.write"), 2u);
    EXPECT_EQ(inj.fires("sam.write"), 1u);
    EXPECT_EQ(inj.evaluations("socket.read"), 4u);
    EXPECT_EQ(inj.totalFires(), 4u);
}

TEST_F(FaultTest, ByteTriggerFiresAfterThreshold)
{
    arm("sam.write:enospc@after=4KiB");
    EXPECT_FALSE(util::checkFaultBytes("sam.write", 1024));
    EXPECT_FALSE(util::checkFaultBytes("sam.write", 3072));
    // Cumulative bytes now past the 4 KiB threshold.
    EXPECT_TRUE(util::checkFaultBytes("sam.write", 1));
    EXPECT_TRUE(util::checkFaultBytes("sam.write", 1));
}

TEST_F(FaultTest, ProbabilisticTriggerIsDeterministicUnderSeed)
{
    auto sample = [&](u64 seed) {
        arm("socket.read:fail@p=0.5", seed);
        std::string bits;
        for (int i = 0; i < 64; ++i)
            bits += util::checkFault("socket.read") ? '1' : '0';
        return bits;
    };
    std::string a = sample(42), b = sample(42), c = sample(43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c); // 2^-64 false-failure odds
    EXPECT_NE(a.find('1'), std::string::npos);
    EXPECT_NE(a.find('0'), std::string::npos);
}

TEST_F(FaultTest, DelayRuleStallsTheCallSite)
{
    arm("chan.push:delay=60ms");
    util::Channel<int> ch(4);
    auto begin = std::chrono::steady_clock::now();
    EXPECT_TRUE(ch.push(1));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
    EXPECT_GE(elapsed, 50);
}

TEST_F(FaultTest, ChannelPushFailureIsDropped)
{
    util::Channel<int> ch(4);
    arm("chan.push:fail@once");
    EXPECT_FALSE(ch.push(1)); // injected: hand-off refused
    EXPECT_TRUE(ch.push(2));  // once => subsequent pushes recover
    std::optional<int> v = ch.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 2);
}

TEST_F(FaultTest, EnvArmingAndTypoTolerance)
{
    auto &inj = util::FaultInjector::instance();
    ::setenv("GPX_FAULTS", "socket.read:fail@nth=2", 1);
    ::setenv("GPX_FAULTS_SEED", "7", 1);
    inj.configureFromEnv();
    EXPECT_TRUE(util::FaultInjector::armed());
    EXPECT_FALSE(util::checkFault("socket.read"));
    EXPECT_TRUE(util::checkFault("socket.read"));
    inj.reset();

    // A typo'd plan must warn and leave the injector disarmed — a
    // daemon restarted under a bad env var has to come up serving.
    ::setenv("GPX_FAULTS", "sockt.read:fail", 1); // bad plan: typo
    inj.configureFromEnv();
    EXPECT_FALSE(util::FaultInjector::armed());
    ::unsetenv("GPX_FAULTS");
    ::unsetenv("GPX_FAULTS_SEED");
}

// ---------------------------------------------------------------------
// Socket-layer faults (unit level, over a socketpair)
// ---------------------------------------------------------------------

class SocketFaultTest : public FaultTest
{
  protected:
    void
    SetUp() override
    {
        FaultTest::SetUp();
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a_ = util::Socket(fds[0]);
        b_ = util::Socket(fds[1]);
    }

    util::Socket a_, b_;
};

TEST_F(SocketFaultTest, InjectedReadFailure)
{
    const char msg[] = "hello";
    ASSERT_TRUE(a_.writeExact(msg, sizeof msg));
    arm("socket.read:fail@once");
    char buf[sizeof msg];
    EXPECT_FALSE(b_.readExact(buf, sizeof buf));
    // The fault fired once; the byte stream itself is intact.
    util::FaultInjector::instance().reset();
    ASSERT_TRUE(a_.writeExact(msg, sizeof msg));
    EXPECT_TRUE(b_.readExact(buf, sizeof buf));
}

TEST_F(SocketFaultTest, InjectedShortWrite)
{
    arm("socket.write:short@once");
    const char msg[] = "0123456789abcdef";
    EXPECT_FALSE(a_.writeExact(msg, sizeof msg));
    util::FaultInjector::instance().reset();
    // A short write is a real transfer of a strict prefix — the peer
    // sees half the bytes, exactly what a dying client produces.
    char buf[sizeof msg / 2];
    EXPECT_TRUE(b_.readExact(buf, sizeof buf));
}

TEST_F(SocketFaultTest, ReadDeadlineExpires)
{
    char byte;
    auto begin = std::chrono::steady_clock::now();
    auto status = b_.readExactDeadline(&byte, 1, 80);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
    EXPECT_FALSE(status.ok);
    EXPECT_TRUE(status.timedOut);
    EXPECT_FALSE(status.cleanEof);
    EXPECT_GE(elapsed, 70);
}

TEST_F(SocketFaultTest, CleanEofIsNotATimeout)
{
    a_.close();
    char byte;
    auto status = b_.readExactDeadline(&byte, 1, 200);
    EXPECT_FALSE(status.ok);
    EXPECT_TRUE(status.cleanEof);
    EXPECT_FALSE(status.timedOut);
}

// ---------------------------------------------------------------------
// SIGBUS guard and truncated images
// ---------------------------------------------------------------------

TEST(SigbusGuard, BenignRegionRunsToCompletion)
{
    int ran = 0;
    EXPECT_TRUE(util::SigbusGuard::run([&] { ran = 1; }));
    EXPECT_EQ(ran, 1);
}

TEST(SigbusGuard, TruncationUnderMmapIsCaught)
{
    // The real failure mode, reproduced exactly: map a file, truncate
    // it behind the mapping, touch a vanished page. Unguarded this is
    // process death; guarded it is `false`.
    std::string path = ::testing::TempDir() + "gpx_sigbus_test.bin";
    const long page = ::sysconf(_SC_PAGESIZE);
    {
        std::ofstream os(path, std::ios::binary);
        std::vector<char> fill(static_cast<std::size_t>(page) * 4, 'x');
        os.write(fill.data(), static_cast<std::streamsize>(fill.size()));
    }
    int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    void *addr = ::mmap(nullptr, static_cast<std::size_t>(page) * 4,
                        PROT_READ, MAP_PRIVATE, fd, 0);
    ASSERT_NE(addr, MAP_FAILED);
    ::close(fd);
    ASSERT_EQ(::truncate(path.c_str(), page), 0);

    volatile char sink = 0;
    const char *bytes = static_cast<const char *>(addr);
    // First page still backed: the guard must not misfire.
    EXPECT_TRUE(util::SigbusGuard::run([&] { sink = bytes[0]; }));
    // Third page is gone: SIGBUS, caught.
    EXPECT_FALSE(util::SigbusGuard::run(
        [&] { sink = bytes[page * 2]; }));
    // The handler restored nothing permanent: guarded reads still work.
    EXPECT_TRUE(util::SigbusGuard::run([&] { sink = bytes[1]; }));
    (void)sink;

    ::munmap(addr, static_cast<std::size_t>(page) * 4);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Golden-corpus fixture shared by the pipeline and serve fault tests
// ---------------------------------------------------------------------

class GoldenFaultTest : public FaultTest
{
  protected:
    void
    SetUp() override
    {
        FaultTest::SetUp();
        std::string dir = goldenDir();
        std::ifstream refFile(dir + "/ref.fa");
        ASSERT_TRUE(refFile) << "missing golden reference in " << dir;
        ref_ = genomics::readFasta(refFile);
        ASSERT_GT(ref_.totalLength(), 0u);
        r1Text_ = slurp(dir + "/r1.fq");
        r2Text_ = slurp(dir + "/r2.fq");
        ASSERT_FALSE(r1Text_.empty());

        genpair::SeedMapParams params;
        params.seedLen = 50;
        params.tableBits = 18;
        params.filterThreshold = 500;
        map_ = std::make_unique<genpair::SeedMap>(ref_, params);
    }

    /** Write the corpus index image with @p shards shards. */
    void
    writeImage(std::ostream &os, u32 shards) const
    {
        genpair::saveSeedMapImage(
            os, ref_, *map_,
            baseline::MinimizerIndex(ref_, baseline::MinimizerParams{}),
            shards);
    }

    /**
     * One spine run over the whole corpus into a checked writer, at 2
     * mapping threads. @p document receives the SAM header, which a
     * separate writer renders first (one `sam.write` call).
     */
    genpair::StreamRunStatus
    runSpine(genomics::SamWriter &sam, genomics::IngestError *error,
             std::string *document, u64 chunk_pairs = 64)
    {
        std::ostringstream header;
        {
            genomics::SamWriter headerWriter(header, ref_);
            headerWriter.writeHeader();
        }
        genpair::DriverConfig config;
        config.threads = 2;
        genpair::StreamingMapper mapper(ref_, *map_, config, chunk_pairs,
                                        /*io_threads=*/2);
        std::istringstream r1(r1Text_), r2(r2Text_);
        genpair::StreamingResult result;
        auto status = mapper.tryRun(r1, r2, sam, result, error);
        if (document != nullptr)
            *document = header.str();
        return status;
    }

    genomics::Reference ref_;
    std::string r1Text_, r2Text_;
    std::unique_ptr<genpair::SeedMap> map_;
};

TEST_F(GoldenFaultTest, ByteSourceFaultSurfacesAsParseError)
{
    std::ostringstream os;
    genomics::SamWriter sam(os, ref_);
    genomics::IngestError error;
    arm("byte.read:fail@nth=2");
    auto status = runSpine(sam, &error, nullptr);
    EXPECT_EQ(status, genpair::StreamRunStatus::kParseError);
    EXPECT_NE(error.message.find("injected"), std::string::npos)
        << error.message;

    // Same mapper code path, faults cleared: the pinned bits prove the
    // failure left no persistent state behind.
    util::FaultInjector::instance().reset();
    std::ostringstream os2;
    genomics::SamWriter sam2(os2, ref_);
    std::string header;
    ASSERT_EQ(runSpine(sam2, &error, &header),
              genpair::StreamRunStatus::kOk);
    EXPECT_EQ(util::md5Hex(header + os2.str()), kGoldenSamMd5);
}

TEST_F(GoldenFaultTest, SamWriteFaultSurfacesAsWriteError)
{
    std::ostringstream os;
    genomics::SamWriter sam(os, ref_);
    sam.checkWrites("corpus.sam", /*fatal_on_error=*/false);
    genomics::IngestError error;
    arm("sam.write:enospc@after=4KiB");
    auto status = runSpine(sam, &error, nullptr);
    EXPECT_EQ(status, genpair::StreamRunStatus::kWriteError);
    EXPECT_TRUE(sam.writeFailed());
    // The diagnostic locates the failure: output label + byte offset.
    EXPECT_NE(error.message.find("corpus.sam"), std::string::npos)
        << error.message;
    EXPECT_NE(error.message.find("byte offset"), std::string::npos)
        << error.message;
}

TEST_F(GoldenFaultTest, SamWriteFaultOnALaterBlockLeavesAnInOrderPrefix)
{
    // One 4096-pair chunk holds the whole 300-pair corpus; at 2 threads
    // the engine cuts it into 64-pair blocks, each rendered by its
    // worker and committed by the writer thread as one stream write.
    std::string header;
    std::ostringstream clean;
    genomics::SamWriter cleanSam(clean, ref_);
    ASSERT_EQ(runSpine(cleanSam, nullptr, &header, 4096),
              genpair::StreamRunStatus::kOk);
    const std::string golden = header + clean.str();
    ASSERT_EQ(util::md5Hex(golden), kGoldenSamMd5);

    // Call 1 is the header writer, call 2 the chunk's first block: the
    // fault fires on its second block.
    std::ostringstream os;
    genomics::SamWriter sam(os, ref_);
    sam.checkWrites("corpus.sam", /*fatal_on_error=*/false);
    genomics::IngestError error;
    arm("sam.write:fail@nth=3");
    EXPECT_EQ(runSpine(sam, &error, &header, 4096),
              genpair::StreamRunStatus::kWriteError);
    EXPECT_TRUE(sam.writeFailed());

    // Exactly the first block landed: a strict, record-aligned prefix
    // of the golden SAM, and the counters agree with it.
    const std::string torn = os.str();
    ASSERT_GT(torn.size(), 0u);
    EXPECT_LT(header.size() + torn.size(), golden.size());
    EXPECT_EQ(golden.compare(header.size(), torn.size(), torn), 0);
    EXPECT_EQ(torn.back(), '\n');
    EXPECT_EQ(sam.bytesWritten(), torn.size());
    EXPECT_EQ(sam.recordsWritten(),
              static_cast<u64>(std::count(torn.begin(), torn.end(), '\n')));
    EXPECT_EQ(sam.recordsWritten(), 2u * 64u);
    EXPECT_NE(error.message.find("corpus.sam"), std::string::npos)
        << error.message;
    EXPECT_NE(error.message.find("byte offset " +
                                 std::to_string(torn.size())),
              std::string::npos)
        << error.message;

    // Faults cleared, the same spine reproduces the golden bits.
    util::FaultInjector::instance().reset();
    std::ostringstream os2;
    genomics::SamWriter sam2(os2, ref_);
    ASSERT_EQ(runSpine(sam2, &error, &header, 4096),
              genpair::StreamRunStatus::kOk);
    EXPECT_EQ(util::md5Hex(header + os2.str()), kGoldenSamMd5);
}

TEST_F(GoldenFaultTest, TruncatedImageRejectedNotCrash)
{
    // An image truncated on disk (botched copy, partial download)
    // must come back as a diagnostic reject from open(), never a
    // SIGBUS or a silently wrong mapping.
    std::string path = ::testing::TempDir() + "gpx_trunc_test.gpx";
    {
        std::ofstream os(path, std::ios::binary);
        writeImage(os, 2);
    }
    std::string full = slurp(path);
    ASSERT_GT(full.size(), 1024u);
    for (std::size_t keep :
         { full.size() / 2, full.size() - 64, std::size_t{ 100 } }) {
        ASSERT_EQ(::truncate(path.c_str(),
                             static_cast<off_t>(keep)),
                  0);
        std::string error;
        auto image = genpair::SeedMapImage::open(path, {}, &error);
        EXPECT_FALSE(image.has_value()) << "keep=" << keep;
        EXPECT_FALSE(error.empty());
        // Restore for the next round.
        std::ofstream os(path, std::ios::binary);
        os.write(full.data(), static_cast<std::streamsize>(full.size()));
    }
    std::remove(path.c_str());
}

TEST_F(GoldenFaultTest, MmapFaultPointsRejectCleanly)
{
    std::string path = ::testing::TempDir() + "gpx_mmapfault_test.gpx";
    {
        std::ofstream os(path, std::ios::binary);
        writeImage(os, 1);
    }
    std::string error;
    arm("mmap.open:fail@once");
    EXPECT_FALSE(
        genpair::SeedMapImage::open(path, {}, &error).has_value());
    EXPECT_NE(error.find("injected"), std::string::npos) << error;

    util::FaultInjector::instance().reset();
    arm("mmap.validate:fail@once");
    EXPECT_FALSE(
        genpair::SeedMapImage::open(path, {}, &error).has_value());
    EXPECT_NE(error.find("injected"), std::string::npos) << error;

    util::FaultInjector::instance().reset();
    EXPECT_TRUE(
        genpair::SeedMapImage::open(path, {}, &error).has_value())
        << error;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Serve-path chaos: shedding, deadlines, faults, hot swap
// ---------------------------------------------------------------------

class ServeFaultTest : public GoldenFaultTest
{
  protected:
    void
    SetUp() override
    {
        GoldenFaultTest::SetUp();
        std::ifstream r1(std::string(goldenDir()) + "/r1.fq");
        std::ifstream r2(std::string(goldenDir()) + "/r2.fq");
        reads1_ = genomics::readFastq(r1);
        reads2_ = genomics::readFastq(r2);
        ASSERT_EQ(reads1_.size(), reads2_.size());
    }

    void
    TearDown() override
    {
        if (server_) {
            server_->requestShutdown();
            server_->waitUntilDrained();
        }
        if (!imagePath_.empty())
            std::remove(imagePath_.c_str());
        GoldenFaultTest::TearDown();
    }

    void
    startServer(serve::ServeConfig config, bool file_backed = false)
    {
        socketPath_ = ::testing::TempDir() + "gpx_faults_test.sock";
        config.socketPath = socketPath_;
        if (config.threads == 0)
            config.threads = 2;
        config.chunkPairs = 64;
        serve::MountSpec spec;
        spec.name = "golden";
        spec.ref = &ref_;
        if (file_backed) {
            imagePath_ = ::testing::TempDir() + "gpx_faults_test.gpx";
            {
                std::ofstream os(imagePath_, std::ios::binary);
                writeImage(os, 2);
            }
            std::string error;
            image_ = genpair::SeedMapImage::open(imagePath_, {}, &error);
            ASSERT_TRUE(image_.has_value()) << error;
            spec.view = image_->view();
            spec.fallbackIndex = image_->fallbackIndex();
            spec.indexPath = imagePath_;
        } else {
            spec.view = *map_;
        }
        server_ = std::make_unique<serve::ServeServer>(
            std::vector<serve::MountSpec>{ spec }, config);
        std::string error;
        ASSERT_TRUE(server_->start(&error)) << error;
    }

    serve::ServeClient
    connect()
    {
        std::string error;
        auto client =
            serve::ServeClient::connectUnix(socketPath_, &error);
        EXPECT_TRUE(client.has_value()) << error;
        return std::move(*client);
    }

    std::string
    fastqSlice(const std::vector<genomics::Read> &reads,
               std::size_t begin, std::size_t end) const
    {
        std::vector<genomics::Read> slice(reads.begin() + begin,
                                          reads.begin() + end);
        std::ostringstream os;
        genomics::writeFastq(os, slice);
        return os.str();
    }

    std::string
    mapCorpus(serve::ServeClient &client, std::size_t batch_pairs)
    {
        std::string doc;
        auto status = client.fetchHeader("", &doc);
        EXPECT_TRUE(status.ok) << status.describe();
        for (std::size_t i = 0; i < reads1_.size(); i += batch_pairs) {
            std::size_t end = std::min(i + batch_pairs, reads1_.size());
            serve::MapReplyBody reply;
            status = client.mapBatch("golden",
                                     fastqSlice(reads1_, i, end),
                                     fastqSlice(reads2_, i, end), false,
                                     &reply);
            EXPECT_TRUE(status.ok) << status.describe();
            doc += reply.sam;
        }
        return util::md5Hex(doc);
    }

    std::vector<genomics::Read> reads1_, reads2_;
    std::optional<genpair::SeedMapImage> image_;
    std::unique_ptr<serve::ServeServer> server_;
    std::string socketPath_, imagePath_;
};

TEST_F(ServeFaultTest, InjectedServerFaultIsRequestScoped)
{
    startServer({});
    auto client = connect();
    arm("serve.map:fail@once");
    serve::MapReplyBody reply;
    auto status =
        client.mapBatch("golden", fastqSlice(reads1_, 0, 8),
                        fastqSlice(reads2_, 0, 8), false, &reply);
    ASSERT_FALSE(status.ok);
    ASSERT_TRUE(status.errorFrame.has_value()) << status.describe();
    EXPECT_EQ(status.errorFrame->code, serve::kErrIoFault);
    // Request-scoped: the same connection immediately serves again.
    status = client.mapBatch("golden", fastqSlice(reads1_, 0, 8),
                             fastqSlice(reads2_, 0, 8), false, &reply);
    EXPECT_TRUE(status.ok) << status.describe();
    EXPECT_EQ(server_->counters().ioFaults, 1u);
}

TEST_F(ServeFaultTest, OverloadShedsWithRetryHintAndClientBacksOff)
{
    serve::ServeConfig config;
    config.admissionSlots = 1;
    config.queueTimeoutMs = 60;
    config.retryAfterMs = 30;
    startServer(config);

    // The first MAP evaluation stalls 600 ms holding the only slot —
    // a deterministic stand-in for an overloaded pool.
    arm("serve.map:delay=600@nth=1");
    std::thread occupier([this]() {
        auto client = connect();
        serve::MapReplyBody reply;
        auto status =
            client.mapBatch("golden", fastqSlice(reads1_, 0, 8),
                            fastqSlice(reads2_, 0, 8), false, &reply);
        EXPECT_TRUE(status.ok) << status.describe();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    // Fail-fast client: explicit OVERLOADED with the backoff hint.
    auto client = connect();
    serve::MapReplyBody reply;
    auto status =
        client.mapBatch("golden", fastqSlice(reads1_, 0, 8),
                        fastqSlice(reads2_, 0, 8), false, &reply);
    ASSERT_FALSE(status.ok);
    ASSERT_TRUE(status.errorFrame.has_value()) << status.describe();
    EXPECT_EQ(status.errorFrame->code, serve::kErrOverloaded);
    EXPECT_EQ(status.errorFrame->retryAfterMs, 30u);

    // Retrying client: capped exponential backoff rides out the spike
    // on the same connection.
    serve::RetryPolicy policy;
    policy.maxRetries = 12;
    policy.backoffMs = 40;
    client.setRetryPolicy(policy);
    status = client.mapBatch("golden", fastqSlice(reads1_, 0, 8),
                             fastqSlice(reads2_, 0, 8), false, &reply);
    EXPECT_TRUE(status.ok) << status.describe();
    occupier.join();

    serve::ServeCounters counters = server_->counters();
    EXPECT_GE(counters.shedded, 1u);
}

TEST_F(ServeFaultTest, SlowLorisHitsFrameDeadline)
{
    serve::ServeConfig config;
    config.connTimeoutMs = 200;
    startServer(config);

    std::string error;
    auto raw = util::connectUnix(socketPath_, &error);
    ASSERT_TRUE(raw.has_value()) << error;
    ASSERT_TRUE(serve::writeFrame(*raw, serve::kHelloRequest,
                                  serve::encodeHello({})));
    serve::Frame frame;
    ASSERT_EQ(serve::readFrame(*raw, &frame), serve::FrameRead::kFrame);

    // Start a frame (2 of 4 length bytes) and stall: the monotonic
    // frame budget must expire no matter how slowly bytes dribble.
    const u8 dribble[2] = { 0x40, 0x00 };
    ASSERT_TRUE(raw->writeExact(dribble, sizeof dribble));
    ASSERT_EQ(serve::readFrame(*raw, &frame), serve::FrameRead::kFrame);
    ASSERT_EQ(frame.type, serve::kErrorReply);
    serve::ErrorBody err;
    ASSERT_TRUE(serve::decodeError(frame.payload, &err));
    EXPECT_EQ(err.code, serve::kErrDeadline);
    // Connection is closed behind the courtesy frame.
    u8 byte;
    EXPECT_FALSE(raw->readExact(&byte, 1));
    EXPECT_EQ(server_->counters().deadlineExpired, 1u);
}

TEST_F(ServeFaultTest, IdleConnectionsAreReaped)
{
    serve::ServeConfig config;
    config.idleTimeoutMs = 100;
    startServer(config);

    std::string error;
    auto raw = util::connectUnix(socketPath_, &error);
    ASSERT_TRUE(raw.has_value()) << error;
    ASSERT_TRUE(serve::writeFrame(*raw, serve::kHelloRequest,
                                  serve::encodeHello({})));
    serve::Frame frame;
    ASSERT_EQ(serve::readFrame(*raw, &frame), serve::FrameRead::kFrame);

    // Say nothing. The reaper answers DEADLINE and closes.
    ASSERT_EQ(serve::readFrame(*raw, &frame), serve::FrameRead::kFrame);
    ASSERT_EQ(frame.type, serve::kErrorReply);
    serve::ErrorBody err;
    ASSERT_TRUE(serve::decodeError(frame.payload, &err));
    EXPECT_EQ(err.code, serve::kErrDeadline);
    EXPECT_NE(err.message.find("idle"), std::string::npos);
    u8 byte;
    EXPECT_FALSE(raw->readExact(&byte, 1));
    EXPECT_EQ(server_->counters().idleClosed, 1u);
}

TEST_F(ServeFaultTest, RefreshRejectedForInlineMount)
{
    startServer({}); // memory-built mount: nothing to re-open
    auto client = connect();
    auto status = client.refreshMount("golden");
    ASSERT_FALSE(status.ok);
    ASSERT_TRUE(status.errorFrame.has_value()) << status.describe();
    EXPECT_EQ(status.errorFrame->code, serve::kErrRefreshFailed);
    // Request-scoped: mapping continues on the same connection.
    serve::MapReplyBody reply;
    status = client.mapBatch("golden", fastqSlice(reads1_, 0, 4),
                             fastqSlice(reads2_, 0, 4), false, &reply);
    EXPECT_TRUE(status.ok) << status.describe();
    EXPECT_EQ(server_->counters().swapsRejected, 1u);
}

TEST_F(ServeFaultTest, RefreshToAnotherReferencesImageRejected)
{
    // An image is bound to the FASTA it was built from. Publishing an
    // image of another genome under the mount's path must not swap in
    // placements against the wrong sequence: REFRESH is rejected with a
    // diagnostic, counted, and the old epoch keeps serving the golden
    // digest.
    startServer({}, /*file_backed=*/true);
    auto client = connect();
    ASSERT_EQ(mapCorpus(client, 64), kGoldenSamMd5);

    simdata::GenomeParams gp;
    gp.length = ref_.totalLength();
    gp.chromosomes = ref_.numChromosomes();
    gp.seed = 7; // the corpus itself is seed 4242
    const genomics::Reference other = simdata::generateGenome(gp);
    {
        const std::string tmp = imagePath_ + ".tmp";
        std::ofstream os(tmp, std::ios::binary);
        genpair::saveSeedMapImage(
            os, other, genpair::SeedMap(other, map_->params()),
            baseline::MinimizerIndex(other, baseline::MinimizerParams{}), 2);
        os.close();
        ASSERT_EQ(std::rename(tmp.c_str(), imagePath_.c_str()), 0);
    }

    std::string error;
    EXPECT_FALSE(server_->refreshMount("golden", &error));
    EXPECT_NE(error.find("different reference"), std::string::npos)
        << error;
    auto status = client.refreshMount("golden");
    ASSERT_FALSE(status.ok);
    ASSERT_TRUE(status.errorFrame.has_value()) << status.describe();
    EXPECT_EQ(status.errorFrame->code, serve::kErrRefreshFailed);
    EXPECT_NE(status.errorFrame->message.find("different reference"),
              std::string::npos)
        << status.errorFrame->message;

    EXPECT_EQ(mapCorpus(client, 64), kGoldenSamMd5);
    const serve::ServeCounters counters = server_->counters();
    EXPECT_EQ(counters.swapsRejected, 2u);
    EXPECT_EQ(counters.indexSwaps, 0u);
}

TEST_F(ServeFaultTest, HotSwapChaosUnderConcurrentClients)
{
    // The tentpole proof: N hot swaps — one of them a corrupt
    // candidate that must be rejected before publish — while
    // concurrent clients map the corpus in a loop. Zero dropped
    // requests, every document bit-identical to the pinned digest.
    // GPX_CHAOS_SWAPS scales the swap count (CI chaos job: 50).
    u64 swapTarget = 4;
    if (const char *env = std::getenv("GPX_CHAOS_SWAPS"))
        swapTarget = std::max<u64>(std::strtoull(env, nullptr, 10), 2);

    startServer({}, /*file_backed=*/true);
    const std::string goodImage = slurp(imagePath_);
    ASSERT_GT(goodImage.size(), 1024u);

    // Replace the on-disk image the way an operator must: write the
    // candidate beside it and rename() over the path. An in-place
    // ofstream rewrite truncates the live inode while the serving
    // epoch still has it mmapped — a concurrent client faulting a
    // cold page past the momentary EOF dies of real SIGBUS. rename()
    // keeps the old inode alive for existing mappings.
    auto publishImage = [this](const std::string &bytes) {
        const std::string tmp = imagePath_ + ".tmp";
        {
            std::ofstream os(tmp, std::ios::binary);
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        }
        ASSERT_EQ(std::rename(tmp.c_str(), imagePath_.c_str()), 0);
    };

    std::atomic<bool> done{ false };
    std::atomic<u64> corpusRuns{ 0 };
    constexpr int kClients = 3;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([this, c, &done, &corpusRuns]() {
            auto client = connect();
            std::size_t batch = 32 + 17 * static_cast<std::size_t>(c);
            do {
                EXPECT_EQ(mapCorpus(client, batch), kGoldenSamMd5);
                ++corpusRuns;
            } while (!done.load());
        });

    u64 swaps = 0;
    bool corruptTried = false;
    while (swaps < swapTarget) {
        std::string error;
        if (!corruptTried && swaps == swapTarget / 2) {
            // Corrupt the candidate: flip a payload byte so the shard
            // checksum cannot match. The swap must be rejected with
            // the old epoch untouched and clients never noticing.
            std::string bad = goodImage;
            bad[bad.size() / 2] ^= 0x5A;
            publishImage(bad);
            EXPECT_FALSE(server_->refreshMount("golden", &error));
            EXPECT_FALSE(error.empty());
            publishImage(goodImage);
            corruptTried = true;
            continue;
        }
        ASSERT_TRUE(server_->refreshMount("golden", &error)) << error;
        ++swaps;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // Every client must complete at least one more full corpus pass
    // entirely on post-swap epochs.
    u64 floor = corpusRuns.load() + kClients;
    while (corpusRuns.load() < floor)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    done.store(true);
    for (auto &t : clients)
        t.join();

    serve::ServeCounters counters = server_->counters();
    EXPECT_GE(counters.indexSwaps, 3u);
    EXPECT_EQ(counters.swapsRejected, 1u);
    EXPECT_EQ(counters.requestsRejected, 0u);

    // A REFRESH over the wire works too (the admin path clients use).
    auto admin = connect();
    auto status = admin.refreshMount("golden");
    EXPECT_TRUE(status.ok) << status.describe();
    EXPECT_EQ(mapCorpus(admin, 64), kGoldenSamMd5);
}

} // namespace
