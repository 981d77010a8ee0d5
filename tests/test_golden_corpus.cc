/**
 * @file
 * Golden end-to-end corpus: a small checked-in simulated reference and
 * read set (tests/data/golden/) with a pinned SAM md5. Serial, pooled,
 * streaming and image-backed drivers (SeedMap and fallback index both
 * served from the mapping) must all reproduce the digest
 * bit-identically, under every SIMD backend the host runs. Runs behind
 * a light-align admission gate pin their counters as well.
 *
 * If an intentional mapping-behavior change moves the digest, every
 * driver must move to the SAME new digest; update kGoldenSamMd5 and
 * say why in the commit. `md5sum` of a gpx_map run over the same
 * corpus (threads/chunk don't matter) reproduces the value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <mutex>
#include <sstream>

#include "baseline/mm2lite.hh"
#include "filters/filtered_light_align.hh"
#include "filters/sneakysnake.hh"
#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "genpair/pipeline.hh"
#include "genpair/seedmap_io.hh"
#include "genpair/streaming.hh"
#include "hwsim/trace_adapter.hh"
#include "util/gzip_stream.hh"
#include "util/md5.hh"
#include "util/simd.hh"
#include "test_gates.hh"

namespace {

using namespace gpx;
using genomics::Reference;

/** Pinned digest of header + all records over the golden corpus. */
const char kGoldenSamMd5[] = "6e4b292bd35bc3babd6ffd733c44612f";

/**
 * The same corpus mapped by MM2-lite alone (DriverConfig::useGenPair =
 * false, gpx_map --baseline), recorded when that path still aligned
 * one chain window at a time with the scalar DP engine.
 */
const char kGoldenBaselineSamMd5[] = "b1f7214ea2481d9b39ea058c59fdc41a";

const char *
goldenDir()
{
#ifdef GPX_GOLDEN_DIR
    return GPX_GOLDEN_DIR;
#else
    return "tests/data/golden";
#endif
}

class GoldenCorpusTest : public ::testing::Test
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
        ASSERT_TRUE(r1 && r2) << "missing golden FASTQ in " << dir;
        auto reads1 = genomics::readFastq(r1);
        auto reads2 = genomics::readFastq(r2);
        ASSERT_EQ(reads1.size(), reads2.size());
        ASSERT_GT(reads1.size(), 0u);
        pairs_.reserve(reads1.size());
        for (std::size_t i = 0; i < reads1.size(); ++i)
            pairs_.push_back({ reads1[i], reads2[i] });

        // Pinned index parameters: auto-sizing heuristics must never be
        // able to move the golden digest.
        params_.seedLen = 50;
        params_.tableBits = 18;
        params_.filterThreshold = 500;
        map_ = std::make_unique<genpair::SeedMap>(ref_, params_);
    }

    /** Digest of one full SAM run produced by @p writeBody. */
    template <typename WriteBody>
    std::string
    samDigest(WriteBody &&writeBody)
    {
        std::ostringstream os;
        genomics::SamWriter sam(os, ref_);
        sam.writeHeader();
        writeBody(sam);
        return util::md5Hex(os.str());
    }

    Reference ref_;
    std::vector<genomics::ReadPair> pairs_;
    genpair::SeedMapParams params_;
    std::unique_ptr<genpair::SeedMap> map_;
    genpair::DriverConfig config_;
};

TEST_F(GoldenCorpusTest, SerialPipelineReproducesPinnedDigest)
{
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        baseline::Mm2Lite fallback(ref_, config_.fallback);
        genpair::GenPairPipeline pipeline(ref_, *map_, config_.pipeline,
                                          &fallback);
        for (const auto &pair : pairs_)
            sam.writePair(pair, pipeline.mapPair(pair));
    });
    EXPECT_EQ(digest, kGoldenSamMd5);
}

TEST_F(GoldenCorpusTest, WorkerPoolReproducesPinnedDigest)
{
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        genpair::DriverConfig config = config_;
        config.threads = 3;
        genpair::ParallelMapper mapper(ref_, *map_, config);
        auto result = mapper.mapAll(pairs_);
        for (std::size_t i = 0; i < pairs_.size(); ++i)
            sam.writePair(pairs_[i], result.mappings[i]);
    });
    EXPECT_EQ(digest, kGoldenSamMd5);
}

TEST_F(GoldenCorpusTest, BaselineDriverReproducesPinnedDigest)
{
    // The baseline maps each worker block through one
    // Mm2Lite::mapPairsBatch() run; neither the block partition (the
    // thread count) nor the SIMD backend may move its bytes.
    genpair::DriverConfig config = config_;
    config.useGenPair = false;
    config.fallbackIndex = std::make_shared<const baseline::MinimizerIndex>(
        ref_, config.fallback.minimizers); // built once for every run
    const util::SimdBackend prev = util::activeSimdBackend();
    for (util::SimdBackend backend :
         { util::SimdBackend::Scalar, util::SimdBackend::Avx2,
           util::SimdBackend::Avx512 }) {
        if (util::forceSimdBackend(backend) != backend)
            continue; // the host cannot run it
        for (u32 threads : { 1u, 4u }) {
            SCOPED_TRACE(std::string("backend=") +
                         util::simdBackendName(backend) +
                         " threads=" + std::to_string(threads));
            config.threads = threads;
            genpair::ParallelMapper mapper(ref_, *map_, config);
            const auto result = mapper.mapAll(pairs_);
            EXPECT_EQ(samDigest([&](genomics::SamWriter &sam) {
                          for (std::size_t i = 0; i < pairs_.size(); ++i)
                              sam.writePair(pairs_[i], result.mappings[i]);
                      }),
                      kGoldenBaselineSamMd5);
        }
    }
    util::forceSimdBackend(prev);
}

TEST_F(GoldenCorpusTest, StreamingDriverReproducesPinnedDigest)
{
    std::string dir = goldenDir();
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
        ASSERT_TRUE(r1 && r2);
        genpair::DriverConfig config = config_;
        config.threads = 2;
        genpair::StreamingMapper mapper(ref_, *map_, config, 64);
        auto result = mapper.run(r1, r2, sam);
        EXPECT_EQ(result.pairs, pairs_.size());
        EXPECT_GT(result.chunks, 1u);
    });
    EXPECT_EQ(digest, kGoldenSamMd5);
}

TEST_F(GoldenCorpusTest, IoThreadSweepReproducesPinnedDigest)
{
    // The async spine contract: parser fan-out, chunk size and worker
    // count must never move the digest — the reorder buffer restores
    // exact input order at every combination.
    std::string dir = goldenDir();
    for (u32 io : { 1u, 2u, 4u }) {
        for (u64 chunk : { u64{ 16 }, u64{ 100000 } }) {
            std::string digest =
                samDigest([&](genomics::SamWriter &sam) {
                    std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
                    ASSERT_TRUE(r1 && r2);
                    genpair::DriverConfig config = config_;
                    config.threads = 3;
                    genpair::StreamingMapper mapper(ref_, *map_, config,
                                                    chunk, io);
                    auto result = mapper.run(r1, r2, sam);
                    EXPECT_EQ(result.pairs, pairs_.size());
                });
            EXPECT_EQ(digest, kGoldenSamMd5)
                << "io_threads=" << io << " chunk=" << chunk;
        }
    }
}

TEST_F(GoldenCorpusTest, GzipIngestReproducesPinnedDigest)
{
    // Round the golden FASTQ through gzip and back in via the sniffing
    // ingest path: same bits out as the plain-text corpus.
    if (!util::gzipSupported())
        GTEST_SKIP() << "built without zlib";
    std::string dir = goldenDir();
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    const std::string gz1 = util::gzipCompress(slurp(dir + "/r1.fq"));
    const std::string gz2 = util::gzipCompress(slurp(dir + "/r2.fq"));
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        std::istringstream r1(gz1), r2(gz2);
        genpair::DriverConfig config = config_;
        config.threads = 2;
        genpair::StreamingMapper mapper(ref_, *map_, config, 64, 2);
        auto result = mapper.run(r1, r2, sam);
        EXPECT_EQ(result.pairs, pairs_.size());
    });
    EXPECT_EQ(digest, kGoldenSamMd5);
}

TEST_F(GoldenCorpusTest, ImageBackedDriversReproducePinnedDigest)
{
    // Round both indexes through a sharded image and map from the
    // mapping alone — SeedMap view and fallback index — under every
    // driver and every SIMD backend the host runs: still the same bits.
    std::string imagePath = ::testing::TempDir() + "golden.gpx";
    {
        std::ofstream out(imagePath, std::ios::binary | std::ios::trunc);
        genpair::saveSeedMapImage(
            out, ref_, *map_,
            baseline::MinimizerIndex(ref_, config_.fallback.minimizers), 4);
        ASSERT_TRUE(out.good());
    }
    genpair::SeedMapOpenOptions options;
    options.reference = &ref_;
    std::string error;
    auto image = genpair::SeedMapImage::open(imagePath, options, &error);
    ASSERT_TRUE(image.has_value()) << error;
    ASSERT_EQ(image->shardCount(), 4u);

    // The served fallback index equals the built one, hash for hash.
    const baseline::MinimizerIndex built(ref_, config_.fallback.minimizers);
    const auto &served = *image->fallbackIndex();
    ASSERT_EQ(served.hashes().size(), built.hashes().size());
    for (u64 h : built.hashes()) {
        auto want = built.lookup(h);
        auto got = served.lookup(h);
        ASSERT_EQ(want.size(), got.size()) << "hash " << h;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(want[i].pos, got[i].pos);
            EXPECT_EQ(want[i].reverse, got[i].reverse);
        }
    }

    genpair::DriverConfig config = config_;
    config.fallbackIndex = image->fallbackIndex();
    const std::string dir = goldenDir();
    const util::SimdBackend prev = util::activeSimdBackend();
    for (util::SimdBackend want :
         { util::SimdBackend::Scalar, util::SimdBackend::Avx2,
           util::SimdBackend::Avx512 }) {
        if (util::forceSimdBackend(want) != want)
            continue; // the host cannot run it
        SCOPED_TRACE(std::string("backend=") + util::simdBackendName(want));

        EXPECT_EQ(samDigest([&](genomics::SamWriter &sam) {
                      baseline::Mm2Lite fallback(ref_, config.fallback,
                                                 config.fallbackIndex);
                      genpair::GenPairPipeline pipeline(
                          ref_, image->view(), config.pipeline, &fallback);
                      for (const auto &pair : pairs_)
                          sam.writePair(pair, pipeline.mapPair(pair));
                  }),
                  kGoldenSamMd5)
            << "serial";
        EXPECT_EQ(samDigest([&](genomics::SamWriter &sam) {
                      genpair::DriverConfig pool = config;
                      pool.threads = 3;
                      genpair::ParallelMapper mapper(ref_, image->view(),
                                                     pool);
                      auto result = mapper.mapAll(pairs_);
                      for (std::size_t i = 0; i < pairs_.size(); ++i)
                          sam.writePair(pairs_[i], result.mappings[i]);
                  }),
                  kGoldenSamMd5)
            << "pool";
        EXPECT_EQ(samDigest([&](genomics::SamWriter &sam) {
                      std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
                      ASSERT_TRUE(r1 && r2);
                      genpair::DriverConfig streaming = config;
                      streaming.threads = 2;
                      genpair::StreamingMapper mapper(ref_, image->view(),
                                                      streaming, 128);
                      auto result = mapper.run(r1, r2, sam);
                      EXPECT_EQ(result.pairs, pairs_.size());
                  }),
                  kGoldenSamMd5)
            << "streaming";
    }
    util::forceSimdBackend(prev);
}

TEST_F(GoldenCorpusTest, TraceEnabledRunReproducesPinnedDigest)
{
    // Stage-event recording must be a pure observer: the traced run
    // produces the same bits as every other driver, and the trace
    // itself parses back with one record per corpus pair.
    std::ostringstream trace;
    hwsim::writeTraceHeader(trace, map_->tableBits());
    std::string dir = goldenDir();
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
        ASSERT_TRUE(r1 && r2);
        genpair::DriverConfig config = config_;
        config.threads = 3;
        config.recordTrace = true;
        genpair::StreamingMapper mapper(ref_, *map_, config, 64);
        auto result = mapper.run(
            r1, r2, sam,
            [&](const genpair::PairTraceRecord *records, u64 count) {
                for (u64 i = 0; i < count; ++i)
                    records[i].writeText(trace);
            });
        EXPECT_EQ(result.pairs, pairs_.size());
    });
    EXPECT_EQ(digest, kGoldenSamMd5);

    std::istringstream is(trace.str());
    hwsim::RecordedRun run;
    std::string error;
    ASSERT_TRUE(hwsim::loadRecordedRun(is, &run, &error)) << error;
    EXPECT_EQ(run.stats.pairsTotal, pairs_.size());
}

/**
 * Pinned outcome of the golden corpus mapped behind one light-align
 * gate: the SAM digest plus the counters the gate moves. The FilterGate
 * tallies are summed over every gate instance of the run (zero for the
 * OddPositionGate, which keeps none).
 */
struct GatedGolden
{
    const char *name;
    bool sneaky; ///< SneakySnake FilterGate, else OddPositionGate
    const char *md5;
    u64 gateRejected;
    u64 lightAlignsAttempted;
    u64 lightHypotheses;
    u64 lightAligned;
    u64 dpAligned;
    u64 gateEvaluations;
    u64 gateRejections;
};

/**
 * Recorded with a candidate-by-candidate gated stage, which asked the
 * gate about each candidate's left and then its right before moving
 * on; the batched stage asks in a different order and must reproduce
 * every value. The sound
 * SneakySnake gate leaves the ungated routing in place; the unsound
 * OddPositionGate moves pairs off the fast path, and the DP at their
 * candidates places them where light alignment did, so the digest
 * stays the ungated one.
 */
const GatedGolden kGatedGolden[] = {
    { "odd-position", false, kGoldenSamMd5, 209, 184, 22143, 48, 213, 0, 0 },
    { "sneakysnake", true, kGoldenSamMd5, 19, 504, 60863, 215, 46, 522, 19 },
};

/** Builds one run's gates and sums the FilterGate tallies over them. */
class GateBank
{
  public:
    GateBank(const Reference &ref, bool sneaky) : ref_(ref), sneaky_(sneaky)
    {
    }

    /** A fresh gate; thread-safe (the pool's workers start at once). */
    std::unique_ptr<genpair::LightAlignGate>
    make()
    {
        if (!sneaky_)
            return std::make_unique<gpx::testing::OddPositionGate>();
        const genpair::LightAlignParams light;
        auto gate = std::make_unique<filters::FilterGate>(
            ref_, snake_, std::max(light.maxShift, light.maxMismatches));
        std::lock_guard<std::mutex> lock(mu_);
        gates_.push_back(gate.get());
        return gate;
    }

    /** Summed evaluations/rejections; the gates must still be alive. */
    std::pair<u64, u64>
    tallies()
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::pair<u64, u64> sum{ 0, 0 };
        for (const filters::FilterGate *g : gates_) {
            sum.first += g->evaluations();
            sum.second += g->rejections();
        }
        return sum;
    }

  private:
    const Reference &ref_;
    bool sneaky_;
    filters::SneakySnakeFilter snake_;
    std::mutex mu_;
    std::vector<const filters::FilterGate *> gates_;
};

TEST_F(GoldenCorpusTest, GatedRunsReproducePinnedDigestAndCounters)
{
    // A gate only filters which candidates reach light alignment; the
    // stage must produce the same mappings and counters whichever
    // driver, thread count or SIMD backend runs it.
    genpair::DriverConfig base = config_;
    base.fallbackIndex = std::make_shared<const baseline::MinimizerIndex>(
        ref_, base.fallback.minimizers); // built once for every run
    const util::SimdBackend prev = util::activeSimdBackend();
    for (const GatedGolden &want : kGatedGolden) {
        SCOPED_TRACE(want.name);
        auto check = [&](const char *driver,
                         const genpair::PipelineStats &stats,
                         const std::string &digest, GateBank &bank) {
            SCOPED_TRACE(driver);
            EXPECT_EQ(digest, want.md5);
            EXPECT_EQ(stats.gateRejected, want.gateRejected);
            EXPECT_EQ(stats.lightAlignsAttempted,
                      want.lightAlignsAttempted);
            EXPECT_EQ(stats.lightHypotheses, want.lightHypotheses);
            EXPECT_EQ(stats.lightAligned, want.lightAligned);
            EXPECT_EQ(stats.dpAligned, want.dpAligned);
            const auto [evaluations, rejections] = bank.tallies();
            EXPECT_EQ(evaluations, want.gateEvaluations);
            EXPECT_EQ(rejections, want.gateRejections);
        };
        for (util::SimdBackend backend :
             { util::SimdBackend::Scalar, util::SimdBackend::Avx2,
               util::SimdBackend::Avx512 }) {
            if (util::forceSimdBackend(backend) != backend)
                continue; // the host cannot run it
            SCOPED_TRACE(std::string("backend=") +
                         util::simdBackendName(backend));
            {
                GateBank bank(ref_, want.sneaky);
                auto gate = bank.make();
                baseline::Mm2Lite fallback(ref_, base.fallback,
                                           base.fallbackIndex);
                genpair::GenPairPipeline pipeline(ref_, *map_,
                                                  base.pipeline, &fallback);
                pipeline.setLightAlignGate(gate.get());
                const std::string digest =
                    samDigest([&](genomics::SamWriter &sam) {
                        for (const auto &pair : pairs_)
                            sam.writePair(pair, pipeline.mapPair(pair));
                    });
                check("serial", pipeline.stats(), digest, bank);
            }
            for (u32 threads : { 1u, 4u }) {
                GateBank bank(ref_, want.sneaky);
                genpair::DriverConfig config = base;
                config.threads = threads;
                config.gateFactory = [&bank] { return bank.make(); };
                genpair::ParallelMapper mapper(ref_, *map_, config);
                const auto result = mapper.mapAll(pairs_);
                const std::string digest =
                    samDigest([&](genomics::SamWriter &sam) {
                        for (std::size_t i = 0; i < pairs_.size(); ++i)
                            sam.writePair(pairs_[i], result.mappings[i]);
                    });
                check(threads == 1 ? "pool x1" : "pool x4", result.stats,
                      digest, bank);
            }
        }
    }
    util::forceSimdBackend(prev);
}

} // namespace
