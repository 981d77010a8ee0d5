#include "genpair/streaming.hh"

#include <atomic>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "genomics/fastq_ingest.hh"
#include "util/byte_stream.hh"
#include "util/channel.hh"
#include "util/gzip_stream.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace gpx {
namespace genpair {

namespace {

/**
 * One chunk leaving the mapper for the emission stage: its SAM bytes,
 * already rendered by the workers one engine block at a time. The
 * chunk's pairs and mappings stay behind on the mapper thread.
 */
struct MappedChunk
{
    u64 seq = 0;
    std::vector<genomics::SamBlock> sam; ///< input order
    std::vector<PairTraceRecord> trace;
    genomics::IngestError error; ///< when set: emission stops here
};

} // namespace

StreamingMapper::StreamingMapper(const genomics::Reference &ref,
                                 const SeedMapView &map,
                                 const DriverConfig &config,
                                 u64 chunk_pairs, u32 io_threads)
    : owned_(std::make_unique<ParallelMapper>(ref, map, config)),
      mapper_(*owned_),
      chunkPairs_(chunk_pairs == 0 ? 1 : chunk_pairs),
      ioThreads_(io_threads == 0 ? 1 : io_threads),
      traceEnabled_(config.recordTrace)
{
}

StreamingMapper::StreamingMapper(ParallelMapper &shared, u64 chunk_pairs,
                                 u32 io_threads, bool record_trace)
    : mapper_(shared),
      chunkPairs_(chunk_pairs == 0 ? 1 : chunk_pairs),
      ioThreads_(io_threads == 0 ? 1 : io_threads),
      traceEnabled_(record_trace)
{
}

StreamingResult
StreamingMapper::run(std::istream &r1, std::istream &r2,
                     genomics::SamWriter &sam,
                     const TraceSink &trace_sink)
{
    StreamingResult result;
    genomics::IngestError error;
    const StreamRunStatus status =
        tryRun(r1, r2, sam, result, &error, 0, trace_sink);
    if (status != StreamRunStatus::kOk)
        gpx_fatal(error.message);
    return result;
}

StreamRunStatus
StreamingMapper::tryRun(std::istream &r1, std::istream &r2,
                        genomics::SamWriter &sam, StreamingResult &result,
                        genomics::IngestError *error, u64 max_pairs,
                        const TraceSink &trace_sink)
{
    gpx_assert(!trace_sink || traceEnabled_,
               "trace sink needs DriverConfig::recordTrace");
    result = StreamingResult{};
    util::Stopwatch watch;

    const std::size_t qcap =
        std::max<std::size_t>(2, static_cast<std::size_t>(ioThreads_) * 2);
    util::Channel<genomics::FastqChunk> rawQ(qcap);
    util::Channel<genomics::ParsedChunk> parsedQ(qcap);
    util::Channel<MappedChunk> mappedQ(2);

    std::atomic<bool> warnedAmbiguous{false};

    // Chunker: owns the byte stacks. Prefetch sits above inflate so
    // file reads AND gzip decompression run ahead of the scan.
    std::thread chunkerThread([&]() {
        util::IstreamSource raw1(r1);
        util::IstreamSource raw2(r2);
        util::AutoInflateSource inflate1(raw1);
        util::AutoInflateSource inflate2(raw2);
        util::PrefetchSource prefetch1(inflate1);
        util::PrefetchSource prefetch2(inflate2);
        genomics::PairedFastqChunker chunker(prefetch1, prefetch2,
                                             chunkPairs_);
        genomics::FastqChunk chunk;
        while (chunker.next(chunk)) {
            // push fails only after an early close (downstream error).
            if (!rawQ.push(std::move(chunk)))
                break;
            chunk = genomics::FastqChunk{};
        }
        rawQ.close();
    });

    // Parsers: the expensive half of ingest, over disjoint chunks.
    // The last one out closes the parsed queue.
    std::atomic<u32> parsersLive{ioThreads_};
    std::vector<std::thread> parserThreads;
    parserThreads.reserve(ioThreads_);
    for (u32 t = 0; t < ioThreads_; ++t) {
        parserThreads.emplace_back([&]() {
            while (auto chunk = rawQ.pop()) {
                genomics::ParsedChunk parsed = genomics::parseFastqChunk(
                    std::move(*chunk), &warnedAmbiguous);
                if (!parsedQ.push(std::move(parsed)))
                    break;
            }
            if (parsersLive.fetch_sub(1) == 1)
                parsedQ.close();
        });
    }

    // Writer: the only thread that commits through `sam`; the workers
    // only render through its const path. Reorders by chunk sequence
    // number so emission is strictly input-ordered; stops at the first
    // in-order error chunk, which by construction carries the
    // diagnostic the serial reader would have hit first.
    genomics::IngestError firstError;
    std::atomic<bool> writeFailed{ false };
    std::thread writerThread([&]() {
        std::map<u64, MappedChunk> reorder;
        u64 nextSeq = 0;
        bool stopped = false;
        while (auto m = mappedQ.pop()) {
            reorder.emplace(m->seq, std::move(*m));
            while (!stopped) {
                auto it = reorder.find(nextSeq);
                if (it == reorder.end())
                    break;
                MappedChunk chunk = std::move(it->second);
                reorder.erase(it);
                if (chunk.error.set()) {
                    firstError = std::move(chunk.error);
                    stopped = true;
                    break;
                }
                if (trace_sink)
                    trace_sink(chunk.trace.data(), chunk.trace.size());
                for (const genomics::SamBlock &block : chunk.sam) {
                    sam.commit(block);
                    if (sam.writeFailed()) {
                        // Checked writer latched a short write/ENOSPC:
                        // nothing downstream of this byte offset can be
                        // emitted in order, so stop writing and let the
                        // pipeline drain (upstream stops via rawQ).
                        writeFailed.store(true,
                                          std::memory_order_relaxed);
                        stopped = true;
                        break;
                    }
                }
                if (stopped)
                    break;
                ++nextSeq;
            }
        }
    });

    // Mapper (this thread): the pool's workers are the parallelism.
    // Chunks are mapped in arrival order (mapping is per-pair pure;
    // the writer restores input order).
    double mapSeconds = 0;
    u64 totalParsed = 0;
    bool tooLarge = false;
    while (auto parsed = parsedQ.pop()) {
        MappedChunk m;
        m.seq = parsed->seq;
        m.error = std::move(parsed->error);
        // Ingest accounting: the slice parsers count the non-ACGT
        // bases they encoded away (IngestStats); fold them in here so
        // the spine reports dirty inputs exactly like the serial
        // reader path would.
        result.stats.ambiguousBases += parsed->r1Stats.ambiguousBases +
                                       parsed->r2Stats.ambiguousBases;
        totalParsed += parsed->pairs.size();
        if (max_pairs != 0 && totalParsed > max_pairs)
            tooLarge = true;
        if (writeFailed.load(std::memory_order_relaxed)) {
            // The writer latched an emission failure; stop producing
            // and drain what is in flight.
            rawQ.close();
        }
        if (m.error.set()) {
            // Stop the chunker; queued chunks still drain so every
            // sequence number below the error reaches the writer.
            rawQ.close();
        } else if (!tooLarge &&
                   !writeFailed.load(std::memory_order_relaxed)) {
            // The workers render each block right after mapping it,
            // so only the SAM bytes travel on; the pairs and mappings
            // are freed here, before a push that may wait.
            DriverResult res = mapper_.mapAll(parsed->pairs, &sam);
            result.stats += res.stats;
            mapSeconds += res.timing.seconds;
            result.pairs += parsed->pairs.size();
            ++result.chunks;
            m.sam = std::move(res.sam);
            m.trace = std::move(res.trace);
        }
        parsed.reset();
        mappedQ.push(std::move(m));
    }
    mappedQ.close();

    writerThread.join();
    rawQ.close(); // idempotent; normally closed by the chunker itself
    chunkerThread.join();
    for (auto &t : parserThreads)
        t.join();

    // Spine stall accounting: this thread is the sole parsedQ popper
    // and sole mappedQ pusher, so the channel counters are exactly the
    // mapping stage's ingest-wait vs emission-wait split.
    result.stats.readerStallSeconds = parsedQ.popStall().seconds;
    result.stats.writerStallSeconds = mappedQ.pushStall().seconds;

    if (writeFailed.load(std::memory_order_relaxed)) {
        if (error != nullptr) {
            error->rank = 2;
            error->message = sam.writeError();
        }
        return StreamRunStatus::kWriteError;
    }
    if (firstError.set()) {
        if (error != nullptr)
            *error = std::move(firstError);
        return StreamRunStatus::kParseError;
    }
    if (tooLarge) {
        if (error != nullptr) {
            error->recordIndex = totalParsed;
            error->rank = 2;
            error->message = util::detail::cat(
                "batch of ", totalParsed,
                " pairs exceeds the per-request limit of ", max_pairs);
        }
        return StreamRunStatus::kTooLarge;
    }
    result.total = RunTiming::of(result.pairs, watch.seconds());
    result.mapping = RunTiming::of(result.pairs, mapSeconds);
    return StreamRunStatus::kOk;
}

} // namespace genpair
} // namespace gpx
