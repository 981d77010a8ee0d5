/**
 * @file
 * StreamingMapper tests: bit-identical results to the batch driver
 * across chunk sizes, stats aggregation, stream-mismatch failure, and
 * the incremental FastqReader.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "genomics/fasta.hh"
#include "genpair/streaming.hh"
#include "simdata/datasets.hh"
#include "test_gates.hh"
#include "util/gzip_stream.hh"

namespace {

using namespace gpx;

class StreamingTest : public ::testing::Test
{
  protected:
    StreamingTest()
    {
        dataset_ = simdata::buildDataset(
            simdata::datasetConfig(1, 400000, 600));
        map_ = std::make_unique<genpair::SeedMap>(
            *dataset_.reference, genpair::SeedMapParams{});
        // Serialize the pairs to FASTQ text the way a user would feed
        // them back in.
        std::vector<genomics::Read> r1, r2;
        for (const auto &p : dataset_.pairs) {
            r1.push_back(p.first);
            r2.push_back(p.second);
        }
        std::ostringstream o1, o2;
        genomics::writeFastq(o1, r1);
        genomics::writeFastq(o2, r2);
        fq1_ = o1.str();
        fq2_ = o2.str();
    }

    /** SAM text of a streaming run over the given FASTQ bytes. */
    std::string
    streamedSamOver(const std::string &t1, const std::string &t2,
                    u64 chunk_pairs, genpair::StreamingResult *out,
                    u32 threads, u32 io_threads)
    {
        std::istringstream i1(t1), i2(t2);
        std::ostringstream sam;
        genomics::SamWriter writer(sam, *dataset_.reference);
        writer.writeHeader();
        genpair::DriverConfig config;
        config.threads = threads;
        genpair::StreamingMapper mapper(*dataset_.reference, *map_,
                                        config, chunk_pairs, io_threads);
        auto result = mapper.run(i1, i2, writer);
        if (out)
            *out = result;
        return sam.str();
    }

    /** SAM text of a streaming run with the given chunk size. */
    std::string
    streamedSam(u64 chunk_pairs, genpair::StreamingResult *out = nullptr,
                u32 threads = 2, u32 io_threads = 1)
    {
        return streamedSamOver(fq1_, fq2_, chunk_pairs, out, threads,
                               io_threads);
    }

    struct ReferenceRun
    {
        std::string sam;
        genpair::StreamingResult result;
    };

    /**
     * Single-chunk reference run, computed once per suite — the
     * dataset is deterministic, so every fixture instance produces the
     * same bytes.
     */
    const ReferenceRun &
    referenceRun()
    {
        static const ReferenceRun ref = [this] {
            ReferenceRun r;
            r.sam = streamedSam(100000, &r.result);
            return r;
        }();
        return ref;
    }

    const std::string &referenceSam() { return referenceRun().sam; }

    simdata::Dataset dataset_;
    std::unique_ptr<genpair::SeedMap> map_;
    std::string fq1_, fq2_;
};

TEST_F(StreamingTest, ChunkSizeDoesNotChangeOutput)
{
    genpair::StreamingResult tiny;
    std::string samTiny = streamedSam(7, &tiny);
    const auto &large = referenceRun();
    EXPECT_EQ(samTiny, large.sam);
    EXPECT_EQ(tiny.pairs, large.result.pairs);
    EXPECT_EQ(tiny.pairs, dataset_.pairs.size());
    EXPECT_GT(tiny.chunks, large.result.chunks);
    EXPECT_EQ(large.result.chunks, 1u);
}

TEST_F(StreamingTest, ChunkSizeOneMapsOnePairPerChunk)
{
    genpair::StreamingResult one;
    std::string samOne = streamedSam(1, &one);
    EXPECT_EQ(samOne, referenceSam());
    EXPECT_EQ(one.pairs, dataset_.pairs.size());
    EXPECT_EQ(one.chunks, one.pairs);
}

TEST_F(StreamingTest, LastPartialChunkIsMappedAndCounted)
{
    // A chunk size that does not divide the pair count leaves a final
    // partial chunk; it must still be mapped and counted as a chunk.
    const u64 n = dataset_.pairs.size();
    const u64 chunkPairs = n - 1;
    ASSERT_GE(n, 3u) << "n-1 must not divide n";
    genpair::StreamingResult r;
    std::string sam = streamedSam(chunkPairs, &r);
    EXPECT_EQ(r.pairs, n);
    EXPECT_EQ(r.chunks, 2u);
    EXPECT_EQ(sam, referenceSam());
}

TEST_F(StreamingTest, ExactMultipleChunkSizeHasNoEmptyTrailingChunk)
{
    const u64 n = dataset_.pairs.size();
    ASSERT_EQ(n % 2, 0u) << "test assumes an even pair count";
    genpair::StreamingResult r;
    streamedSam(n / 2, &r);
    EXPECT_EQ(r.pairs, n);
    EXPECT_EQ(r.chunks, 2u);
}

TEST_F(StreamingTest, ZeroChunkSizeIsClampedToOne)
{
    genpair::StreamingResult r;
    std::string sam = streamedSam(0, &r);
    EXPECT_EQ(r.pairs, dataset_.pairs.size());
    EXPECT_EQ(r.chunks, r.pairs);
    EXPECT_EQ(sam, referenceSam());
}

TEST_F(StreamingTest, ThreadCountDoesNotChangeOutput)
{
    // Bit-identical SAM across --threads 1/2/8: the pool's atomic
    // block cursor changes which worker maps which pair, never what
    // lands at the pair's output index.
    genpair::StreamingResult r1, r2, r8;
    std::string sam1 = streamedSam(64, &r1, 1);
    std::string sam2 = streamedSam(64, &r2, 2);
    std::string sam8 = streamedSam(64, &r8, 8);
    EXPECT_EQ(sam1, sam2);
    EXPECT_EQ(sam1, sam8);
    EXPECT_EQ(r1.stats.lightAligned, r8.stats.lightAligned);
    EXPECT_EQ(r1.stats.unmapped, r8.stats.unmapped);
}

TEST_F(StreamingTest, ThreadAndChunkSweepIsDeterministic)
{
    // Cross sweep under the persistent pool: every (threads, chunk)
    // combination must produce the single-chunk reference bytes.
    for (u32 threads : { 1u, 2u, 8u }) {
        for (u64 chunk : { u64{ 3 }, u64{ 100 } }) {
            std::string sam = streamedSam(chunk, nullptr, threads);
            EXPECT_EQ(sam, referenceSam())
                << "threads=" << threads << " chunk=" << chunk;
        }
    }
}

TEST_F(StreamingTest, IoThreadSweepIsDeterministic)
{
    // The tentpole contract of the async spine: parser fan-out and the
    // reorder buffer must never change a byte of output, at any
    // (io_threads, worker threads, chunk) combination.
    for (u32 io : { 1u, 2u, 4u }) {
        for (u64 chunk : { u64{ 3 }, u64{ 100 } }) {
            genpair::StreamingResult r;
            std::string sam = streamedSam(chunk, &r, 2, io);
            EXPECT_EQ(sam, referenceSam())
                << "io_threads=" << io << " chunk=" << chunk;
            EXPECT_EQ(r.pairs, dataset_.pairs.size());
        }
    }
}

TEST_F(StreamingTest, ZeroIoThreadsIsClampedToOne)
{
    genpair::StreamingResult r;
    std::string sam = streamedSam(64, &r, 2, 0);
    EXPECT_EQ(sam, referenceSam());
    EXPECT_EQ(r.pairs, dataset_.pairs.size());
}

TEST_F(StreamingTest, StallCountersAreReportedAndSane)
{
    // Forcing one-pair chunks through many parsers makes the mapping
    // stage block on ingest or emission at least once; either way the
    // counters must come back finite and non-negative, and a fresh run
    // must not inherit a previous run's stall time.
    genpair::StreamingResult r;
    streamedSam(1, &r, 2, 4);
    EXPECT_GE(r.stats.readerStallSeconds, 0.0);
    EXPECT_GE(r.stats.writerStallSeconds, 0.0);
    EXPECT_LT(r.stats.readerStallSeconds, 3600.0);
    EXPECT_LT(r.stats.writerStallSeconds, 3600.0);

    std::ostringstream js;
    r.stats.writeJson(js);
    EXPECT_NE(js.str().find("\"reader_stall_seconds\""),
              std::string::npos);
    EXPECT_NE(js.str().find("\"writer_stall_seconds\""),
              std::string::npos);
}

TEST_F(StreamingTest, GzipInputMatchesPlainBitForBit)
{
    if (!util::gzipSupported())
        GTEST_SKIP() << "built without zlib";
    const std::string gz1 = util::gzipCompress(fq1_);
    const std::string gz2 = util::gzipCompress(fq2_);
    ASSERT_LT(gz1.size(), fq1_.size());
    genpair::StreamingResult r;
    std::string sam = streamedSamOver(gz1, gz2, 64, &r, 2, 2);
    EXPECT_EQ(sam, referenceSam());
    EXPECT_EQ(r.pairs, dataset_.pairs.size());
}

TEST_F(StreamingTest, MixedGzipAndPlainStreamsMatch)
{
    // Sniffing is per-stream: a gzip R1 against a plain R2 must work
    // and produce the same bytes.
    if (!util::gzipSupported())
        GTEST_SKIP() << "built without zlib";
    std::string sam = streamedSamOver(util::gzipCompress(fq1_), fq2_,
                                      64, nullptr, 2, 2);
    EXPECT_EQ(sam, referenceSam());
}

TEST_F(StreamingTest, GateRejectionsSurviveChunkAggregation)
{
    // The seed batch driver dropped gateRejected when merging worker
    // stats, so streaming runs always reported zero. With a rejecting
    // gate installed, the counter must be nonzero and independent of
    // chunking and thread count.
    auto run = [&](u64 chunk_pairs, u32 threads) {
        std::istringstream i1(fq1_), i2(fq2_);
        std::ostringstream sam;
        genomics::SamWriter writer(sam, *dataset_.reference);
        writer.writeHeader();
        genpair::DriverConfig config;
        config.threads = threads;
        config.gateFactory = [] {
            return std::make_unique<gpx::testing::OddPositionGate>();
        };
        genpair::StreamingMapper mapper(*dataset_.reference, *map_,
                                        config, chunk_pairs);
        return mapper.run(i1, i2, writer).stats.gateRejected;
    };
    const u64 serial = run(1000000, 1);
    EXPECT_GT(serial, 0u);
    EXPECT_EQ(run(37, 4), serial);
    EXPECT_EQ(run(7, 8), serial);
}

TEST_F(StreamingTest, MatchesBatchDriver)
{
    genpair::StreamingResult streamed;
    std::string samStreamed = streamedSam(64, &streamed);

    // Batch run over the same reads, same SAM writer settings. The
    // FASTQ round trip strips truth metadata, so feed the batch driver
    // the re-parsed reads rather than the originals.
    std::istringstream i1(fq1_), i2(fq2_);
    auto r1 = genomics::readFastq(i1);
    auto r2 = genomics::readFastq(i2);
    std::vector<genomics::ReadPair> pairs(r1.size());
    for (std::size_t i = 0; i < r1.size(); ++i)
        pairs[i] = { r1[i], r2[i] };
    genpair::DriverConfig config;
    config.threads = 2;
    genpair::ParallelMapper batch(*dataset_.reference, *map_, config);
    auto batchResult = batch.mapAll(pairs);

    std::ostringstream sam;
    genomics::SamWriter writer(sam, *dataset_.reference);
    writer.writeHeader();
    for (std::size_t i = 0; i < pairs.size(); ++i)
        writer.writePair(pairs[i], batchResult.mappings[i]);

    EXPECT_EQ(samStreamed, sam.str());
    EXPECT_EQ(streamed.stats.pairsTotal, batchResult.stats.pairsTotal);
    EXPECT_EQ(streamed.stats.lightAligned,
              batchResult.stats.lightAligned);
    EXPECT_EQ(streamed.stats.unmapped, batchResult.stats.unmapped);
}

TEST_F(StreamingTest, WriterCountsWorkerRenderedRecordsAndBytes)
{
    // The workers render and the writer thread only commits their
    // blocks; the writer's counters must still see every record and
    // byte, in input order, at every thread/chunk combination.
    const std::string &expected = referenceSam();
    const u64 pairs = dataset_.pairs.size();
    for (u32 threads : { 1u, 4u }) {
        for (u64 chunk : { u64{ 1 }, u64{ 64 }, u64{ 65536 } }) {
            std::istringstream i1(fq1_), i2(fq2_);
            std::ostringstream sam;
            genomics::SamWriter writer(sam, *dataset_.reference);
            writer.writeHeader();
            const u64 headerBytes = writer.bytesWritten();
            genpair::DriverConfig config;
            config.threads = threads;
            genpair::StreamingMapper mapper(*dataset_.reference, *map_,
                                            config, chunk);
            genpair::StreamingResult result;
            ASSERT_EQ(mapper.tryRun(i1, i2, writer, result),
                      genpair::StreamRunStatus::kOk);
            EXPECT_EQ(result.pairs, pairs);
            EXPECT_EQ(writer.recordsWritten(), 2 * pairs)
                << "threads " << threads << " chunk " << chunk;
            EXPECT_EQ(writer.bytesWritten(), sam.str().size())
                << "threads " << threads << " chunk " << chunk;
            EXPECT_GT(writer.bytesWritten(), headerBytes);
            EXPECT_EQ(sam.str(), expected)
                << "threads " << threads << " chunk " << chunk;
        }
    }
}

TEST_F(StreamingTest, StatsAccumulateAcrossChunks)
{
    genpair::StreamingResult r;
    streamedSam(50, &r);
    const auto &st = r.stats;
    EXPECT_EQ(st.pairsTotal, dataset_.pairs.size());
    // Routing classes partition the input.
    EXPECT_EQ(st.lightAligned + st.dpAligned + st.fullDpMapped +
                  st.unmapped,
              st.pairsTotal);
    EXPECT_GT(st.query.seedLookups, 0u);
}

TEST_F(StreamingTest, EmptyStreamsYieldHeaderOnlySam)
{
    std::istringstream i1(""), i2("");
    std::ostringstream sam;
    genomics::SamWriter writer(sam, *dataset_.reference);
    writer.writeHeader();
    genpair::StreamingMapper mapper(*dataset_.reference, *map_,
                                    genpair::DriverConfig{});
    auto result = mapper.run(i1, i2, writer);
    EXPECT_EQ(result.pairs, 0u);
    EXPECT_EQ(result.chunks, 0u);
    EXPECT_EQ(sam.str().find("sim"), std::string::npos);
}

TEST_F(StreamingTest, MismatchedStreamLengthsFatal)
{
    EXPECT_DEATH(
        {
            std::istringstream i1(fq1_);
            std::istringstream i2("@only\nACGT\n+\nIIII\n");
            std::ostringstream sam;
            genomics::SamWriter writer(sam, *dataset_.reference);
            genpair::StreamingMapper mapper(*dataset_.reference, *map_,
                                            genpair::DriverConfig{});
            mapper.run(i1, i2, writer);
        },
        "FASTQ streams disagree");
}

TEST_F(StreamingTest, MismatchFatalNamesTheStreamThatEndedEarly)
{
    // R2 runs out after one record; the fatal must say so (and not
    // just that the counts differ) so users know which file to fix.
    EXPECT_DEATH(
        {
            std::istringstream i1(fq1_);
            std::istringstream i2("@only\nACGT\n+\nIIII\n");
            std::ostringstream sam;
            genomics::SamWriter writer(sam, *dataset_.reference);
            genpair::StreamingMapper mapper(*dataset_.reference, *map_,
                                            genpair::DriverConfig{});
            mapper.run(i1, i2, writer);
        },
        "R2 ended early after 1 records");
}

TEST(FastqReader, IncrementalMatchesBatch)
{
    std::string text = "@a x\nACGT\n+\nIIII\n@b\nTTAA\n+\nIIII\n";
    std::istringstream batchIn(text);
    auto batch = genomics::readFastq(batchIn);

    std::istringstream incIn(text);
    genomics::FastqReader reader(incIn);
    genomics::Read r;
    std::vector<genomics::Read> inc;
    while (reader.next(r))
        inc.push_back(r);

    ASSERT_EQ(inc.size(), batch.size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
        EXPECT_EQ(inc[i].name, batch[i].name);
        EXPECT_TRUE(inc[i].seq == batch[i].seq);
    }
    EXPECT_EQ(reader.recordsRead(), 2u);
}

} // namespace
