/**
 * @file
 * The traced map run. It makes the calls gpx_map makes — readFasta,
 * SeedMapImage::open, the MM2-lite MinimizerIndex build, MapperEngine
 * start-up, the FASTQ chunk scan and parse, the five stage functions
 * per batch and SamWriter::writePairBatch — and records a span around
 * each one.
 *
 * The run is StreamingMapper's spine rebuilt from public parts, so the
 * overlap (and the SAM bytes) match gpx_map's: a chunker thread and a
 * parser thread feed the mapping thread through bounded channels, and
 * a writer thread emits each mapped chunk in order. The per-worker
 * state mirrors ParallelMapper's (one Mm2Lite fallback over the shared
 * index plus the stage-graph engines) and the block function runs the
 * stages in runStageGraph() order.
 *
 * The mapping thread is the critical path. Its top-level spans — the
 * set-up calls, then per chunk the wait for parsed input
 * (reader_stall), the engine run and the hand-off to the writer
 * (writer_stall), then the final drain — cover its whole wall time
 * except for a small remainder the harness reports as unattributed.
 * Spans on the other threads measure busy time that overlaps it.
 *
 * Spans live in memory (one log per thread, no locking) and are
 * written as TSV when the run ends:
 *   name  start_ns  end_ns  id  parent  chunk  thread
 * Thread 0 is the mapping thread, 1..N the workers, then the chunker,
 * parser and writer. Only thread-0 spans have ids; worker spans name
 * their chunk's genpair.engine.run span as parent.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "baseline/minimizer_index.hh"
#include "baseline/mm2lite.hh"
#include "genomics/fasta.hh"
#include "genomics/fastq_ingest.hh"
#include "genomics/sam.hh"
#include "genpair/engine.hh"
#include "genpair/pipeline.hh"
#include "genpair/seedmap_io.hh"
#include "genpair/stages.hh"
#include "pbtool.hh"
#include "util/byte_stream.hh"
#include "util/channel.hh"
#include "util/gzip_stream.hh"

namespace perfbench {

using namespace gpx;

namespace {

struct Span
{
    const char *name;
    i64 startNs;
    i64 endNs;
    i32 id;
    i32 parent;
    i64 chunk;
};

/** Spans of one thread. */
struct SpanLog
{
    std::vector<Span> spans;

    /** Open a span on the owning thread; returns its id. */
    i32
    begin(const char *name, i32 parent, i64 chunk)
    {
        const i32 id = static_cast<i32>(spans.size());
        spans.push_back({ name, nowNs(), 0, id, parent, chunk });
        return id;
    }

    void end(i32 id) { spans[static_cast<std::size_t>(id)].endNs = nowNs(); }

    /** Record a finished leaf span (no id). */
    void
    leaf(const char *name, i64 start, i32 parent, i64 chunk)
    {
        spans.push_back({ name, start, nowNs(), -1, parent, chunk });
    }
};

/** One worker's engines, as ParallelMapper builds them. */
struct TraceWorker : genpair::WorkerContext
{
    baseline::Mm2Lite fallback;
    genpair::PartitionedSeeder seeder;
    genpair::LightAligner light;
    genpair::PipelineStats stats;
    genpair::PairBatch batch;
    SpanLog log;

    TraceWorker(const genomics::Reference &ref,
                const genpair::SeedMapView &map,
                const genpair::GenPairParams &params,
                const baseline::Mm2LiteParams &fallbackParams,
                std::shared_ptr<const baseline::MinimizerIndex> index)
        : fallback(ref, fallbackParams, std::move(index)), seeder(map),
          light(ref, params.light)
    {
    }
};

using StageFn = void (*)(const genpair::StageContext &,
                         genpair::PairBatch &);

struct StageStep
{
    const char *span;
    StageFn fn;
};

/** runStageGraph() order. */
const StageStep kStages[] = {
    { "genpair.stages.seed", genpair::runSeedStage },
    { "genpair.stages.query", genpair::runQueryStage },
    { "genpair.stages.pa_filter", genpair::runPaFilterStage },
    { "genpair.stages.light_align", genpair::runLightAlignStage },
    { "genpair.stages.fallback", genpair::runFallbackStage },
};

/** One chunk on its way from the mapping thread to the writer. */
struct MappedChunk
{
    i64 seq = 0;
    std::vector<genomics::ReadPair> pairs;
    std::vector<genomics::PairMapping> mappings;
};

void
writeSpans(std::ostream &os, const SpanLog &log, u32 thread)
{
    for (const Span &s : log.spans)
        os << s.name << '\t' << s.startNs << '\t' << s.endNs << '\t'
           << s.id << '\t' << s.parent << '\t' << s.chunk << '\t'
           << thread << '\n';
}

} // namespace

int
traceMain(const Args &args)
{
    const genpair::GenPairParams params{};
    const baseline::Mm2LiteParams fallbackParams{};

    SpanLog log;
    const i32 root = log.begin("run", -1, -1);

    i32 id = log.begin("genomics.fasta.parse", root, -1);
    std::ifstream refFile(args.str("ref"));
    if (!refFile)
        die("cannot open reference " + args.str("ref"));
    const genomics::Reference ref = genomics::readFasta(refFile);
    log.end(id);

    id = log.begin("genpair.seedmap_io.open", root, -1);
    std::string error;
    const std::optional<genpair::SeedMapImage> image =
        genpair::SeedMapImage::open(args.str("index"), {}, &error);
    if (!image)
        die("index image rejected: " + error);
    const genpair::SeedMapView map = image->view();
    log.end(id);

    id = log.begin("baseline.minimizer_index.build", root, -1);
    const auto index = std::make_shared<const baseline::MinimizerIndex>(
        ref, fallbackParams.minimizers);
    log.end(id);

    id = log.begin("genpair.engine.start", root, -1);
    genpair::MapperEngine engine(kThreads, [&](u32) {
        return std::make_unique<TraceWorker>(ref, map, params,
                                             fallbackParams, index);
    });
    log.end(id);

    id = log.begin("genomics.sam.header", root, -1);
    std::ofstream samFile(args.str("out"));
    if (!samFile)
        die("cannot open output " + args.str("out"));
    genomics::SamWriter sam(samFile, ref);
    sam.checkWrites(args.str("out"), /*fatal_on_error=*/true);
    sam.writeHeader();
    log.end(id);

    std::ifstream r1File(args.str("r1")), r2File(args.str("r2"));
    if (!r1File || !r2File)
        die("cannot open the FASTQ inputs");

    // The spine, with StreamingMapper's queue bounds at --io-threads 1.
    util::Channel<genomics::FastqChunk> rawQ(2);
    util::Channel<genomics::ParsedChunk> parsedQ(2);
    util::Channel<MappedChunk> mappedQ(2);
    SpanLog chunkerLog, parserLog, writerLog;
    u64 ingestBytes = 0;

    std::thread chunkerThread([&]() {
        util::IstreamSource raw1(r1File), raw2(r2File);
        util::AutoInflateSource inflate1(raw1), inflate2(raw2);
        util::PrefetchSource prefetch1(inflate1), prefetch2(inflate2);
        genomics::PairedFastqChunker chunker(prefetch1, prefetch2,
                                             kChunkPairs);
        for (i64 c = 0;; ++c) {
            const i64 start = nowNs();
            genomics::FastqChunk chunk;
            const bool more = chunker.next(chunk);
            chunkerLog.leaf("genomics.fastq_ingest.scan", start, root, c);
            if (!more)
                break;
            ingestBytes += chunk.r1Text.size() + chunk.r2Text.size();
            if (!rawQ.push(std::move(chunk)))
                break;
        }
        rawQ.close();
    });

    std::thread parserThread([&]() {
        std::atomic<bool> warnedAmbiguous{ false };
        while (auto chunk = rawQ.pop()) {
            const i64 start = nowNs();
            const i64 seq = static_cast<i64>(chunk->seq);
            genomics::ParsedChunk parsed = genomics::parseFastqChunk(
                std::move(*chunk), &warnedAmbiguous);
            parserLog.leaf("genomics.fastq_ingest.parse", start, root, seq);
            if (!parsedQ.push(std::move(parsed)))
                break;
        }
        parsedQ.close();
    });

    // Chunks reach the writer in input order: one parser, one mapper.
    std::thread writerThread([&]() {
        while (auto m = mappedQ.pop()) {
            const i64 start = nowNs();
            sam.writePairBatch(m->pairs.data(), m->mappings.data(),
                               m->pairs.size());
            writerLog.leaf("genomics.sam.render", start, root, m->seq);
        }
    });

    // Read by the block function on the workers; written only between
    // engine runs.
    const genomics::ReadPair *pairs = nullptr;
    genomics::PairMapping *out = nullptr;
    i32 runSpan = -1;
    i64 chunkId = -1;
    const genpair::MapperEngine::BlockFn block =
        [&](genpair::WorkerContext &wc, u64 begin, u64 end) {
            auto &w = static_cast<TraceWorker &>(wc);
            w.batch.bind(pairs + begin, end - begin, out + begin,
                         nullptr);
            const genpair::StageContext ctx{ ref,     map,        params,
                                             w.seeder, w.light,   nullptr,
                                             &w.fallback, w.stats };
            for (const StageStep &step : kStages) {
                const i64 start = nowNs();
                step.fn(ctx, w.batch);
                w.log.leaf(step.span, start, runSpan, chunkId);
            }
        };

    u64 totalPairs = 0, chunks = 0;
    for (;;) {
        id = log.begin("genpair.streaming.reader_stall", root, -1);
        std::optional<genomics::ParsedChunk> parsed = parsedQ.pop();
        log.end(id);
        if (!parsed)
            break;
        if (parsed->error.set())
            die("FASTQ rejected: " + parsed->error.message);

        MappedChunk m;
        m.seq = static_cast<i64>(parsed->seq);
        m.pairs = std::move(parsed->pairs);
        m.mappings.resize(m.pairs.size());
        pairs = m.pairs.data();
        out = m.mappings.data();
        chunkId = m.seq;
        runSpan = log.begin("genpair.engine.run", root, m.seq);
        engine.submit(m.pairs.size(), block);
        log.end(runSpan);
        totalPairs += m.pairs.size();
        ++chunks;

        id = log.begin("genpair.streaming.writer_stall", root, m.seq);
        mappedQ.push(std::move(m));
        log.end(id);
    }

    id = log.begin("genomics.sam.drain", root, -1);
    mappedQ.close();
    writerThread.join();
    chunkerThread.join();
    parserThread.join();
    samFile.close();
    if (!samFile)
        die("SAM close failed");
    log.end(id);
    log.end(root);

    genpair::PipelineStats stats;
    baseline::DpWork dp;
    std::ofstream spanFile(args.str("spans"));
    writeSpans(spanFile, log, 0);
    u32 slot = 0;
    engine.forEachContext([&](genpair::WorkerContext &wc) {
        const auto &w = static_cast<TraceWorker &>(wc);
        stats += w.stats;
        dp.chainCells += w.fallback.dpWork().chainCells;
        dp.alignCells += w.fallback.dpWork().alignCells;
        writeSpans(spanFile, w.log, ++slot);
    });
    writeSpans(spanFile, chunkerLog, ++slot);
    writeSpans(spanFile, parserLog, ++slot);
    writeSpans(spanFile, writerLog, ++slot);
    spanFile.close();
    if (!spanFile)
        die("cannot write spans to " + args.str("spans"));

    std::ofstream statsFile(args.str("stats"));
    statsFile << "{\"pairs\": " << totalPairs << ", \"chunks\": " << chunks
              << ", \"threads\": " << engine.threads()
              << ", \"ingest_bytes\": " << ingestBytes
              << ", \"sam_bytes\": " << sam.bytesWritten()
              << ", \"sam_records\": " << sam.recordsWritten()
              << ", \"image_bytes\": " << image->imageBytes()
              << ", \"chain_cells\": " << dp.chainCells
              << ", \"align_cells\": " << dp.alignCells
              << ", \"pipeline\": ";
    stats.writeJson(statsFile);
    statsFile << "}\n";
    statsFile.close();
    if (!statsFile)
        die("cannot write stats to " + args.str("stats"));
    return 0;
}

} // namespace perfbench
