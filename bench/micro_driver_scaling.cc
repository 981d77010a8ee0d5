/**
 * @file
 * micro_driver_scaling — host driver throughput across threads x chunk
 * size, plus end-to-end ingest-included runs of the async I/O spine
 * (format v3).
 *
 * Two measurements:
 *
 *  1. `grid` — a chunked streaming replay through one persistent
 *     ParallelMapper pool over a threads x chunk-size grid, mapping
 *     time only. Small chunks show what per-chunk dispatch costs; the
 *     largest reaches the engine's guided grain (blocks above the
 *     64-pair minimum). Informational, not gated.
 *
 *  2. `ingest` — whole StreamingMapper runs, FASTQ text in and SAM
 *     text out, comparing the one-parser spine (`--io-threads 1`, the
 *     pre-spine shape) against the multi-parser spine at every thread
 *     count. This is the number the async-spine PR moves: parse cost
 *     overlaps mapping instead of serializing ahead of it.
 *
 * The thread grid extends {1,2,4,8,16,32,64} but is capped to the
 * host's hardware concurrency (`--max-threads` overrides the cap);
 * `host_threads` is recorded in the JSON so the CI gate
 * (scripts/check_driver_scaling.py) can skip thread counts the
 * recording host could not genuinely exercise. `--json PATH` records
 * everything machine-readably (see BENCH_driver_scaling.json next to
 * the fig11 baseline at the repo root).
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "genomics/sam.hh"
#include "genpair/driver.hh"
#include "genpair/streaming.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "util/version.hh"

namespace {

using namespace gpx;

struct GridPoint
{
    u32 threads;
    u64 chunkPairs;
    u64 chunks;
    double pairsPerSec;
};

/** One ingest-included end-to-end point: spine vs single reader. */
struct IngestPoint
{
    u32 threads;
    u32 ioThreads;
    double singleReaderPairsPerSec;
    double spinePairsPerSec;
    double readerStallSecs;
    double writerStallSecs;

    double
    speedup() const
    {
        return singleReaderPairsPerSec > 0
                   ? spinePairsPerSec / singleReaderPairsPerSec
                   : 0.0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    using namespace gpx::bench;

    std::string jsonPath;
    u32 maxThreads = std::max(1u, std::thread::hardware_concurrency());
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json needs a path\n");
                return 2;
            }
            jsonPath = argv[++i];
        } else if (std::string(argv[i]) == "--max-threads") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--max-threads needs a count\n");
                return 2;
            }
            maxThreads = static_cast<u32>(
                std::max(1L, std::atol(argv[++i])));
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }
    const u32 hostThreads =
        std::max(1u, std::thread::hardware_concurrency());

    banner("Host driver scaling: threads x chunk size, spine vs one reader",
           "ROADMAP host-throughput north star");

    // Smaller than the fig benches: the grid multiplies runtime.
    simdata::Dataset dataset = simdata::buildDataset(
        simdata::datasetConfig(1, u64{ 2 } << 20, 6000));
    genpair::SeedMap seedmap(*dataset.reference,
                             genpair::SeedMapParams{});
    const auto &pairs = dataset.pairs;

    // Small chunks show the per-chunk dispatch cost; 4096 pairs is big
    // enough for the guided grain to claim blocks above the 64-pair
    // minimum. The thread grid reaches 64 on hosts that can genuinely
    // run it; elsewhere it caps so the recorded numbers never describe
    // oversubscription artifacts.
    std::vector<u32> threadGrid;
    for (u32 t : { 1u, 2u, 4u, 8u, 16u, 32u, 64u })
        if (t <= maxThreads)
            threadGrid.push_back(t);
    const std::vector<u64> chunkGrid{ 4, 64, 256, 4096 };
    std::vector<GridPoint> grid;

    for (u32 threads : threadGrid) {
        genpair::DriverConfig config;
        config.threads = threads;
        // One pool per thread count, reused across every chunk size —
        // exactly how StreamingMapper drives it.
        genpair::ParallelMapper pooled(*dataset.reference, seedmap,
                                       config);
        // Warm caches and first-touch pages once per thread count so no
        // grid point is charged for them.
        pooled.mapAll(pairs);
        for (u64 chunkPairs : chunkGrid) {
            GridPoint pt;
            pt.threads = threads;
            pt.chunkPairs = chunkPairs;
            pt.chunks = (pairs.size() + chunkPairs - 1) / chunkPairs;

            // Chunked streaming replay through the persistent pool.
            auto replay = [&]() {
                double secs = 0;
                for (u64 begin = 0; begin < pairs.size();
                     begin += chunkPairs) {
                    const u64 end =
                        std::min<u64>(pairs.size(), begin + chunkPairs);
                    std::vector<genomics::ReadPair> chunk(
                        pairs.begin() +
                            static_cast<std::ptrdiff_t>(begin),
                        pairs.begin() + static_cast<std::ptrdiff_t>(end));
                    secs += pooled.mapAll(chunk).timing.seconds;
                }
                return secs;
            };

            // Best-of-N: min-time is the standard low-variance pick.
            constexpr int kReps = 3;
            double secs = replay();
            for (int rep = 1; rep < kReps; ++rep)
                secs = std::min(secs, replay());
            pt.pairsPerSec = secs > 0 ? pairs.size() / secs : 0;
            grid.push_back(pt);
        }
    }

    // -----------------------------------------------------------------
    // Ingest-included end-to-end: FASTQ text -> spine -> SAM text.
    // -----------------------------------------------------------------
    std::string fq1, fq2;
    {
        std::vector<genomics::Read> r1, r2;
        r1.reserve(pairs.size());
        r2.reserve(pairs.size());
        for (const auto &p : pairs) {
            r1.push_back(p.first);
            r2.push_back(p.second);
        }
        std::ostringstream o1, o2;
        genomics::writeFastq(o1, r1);
        genomics::writeFastq(o2, r2);
        fq1 = o1.str();
        fq2 = o2.str();
    }

    std::vector<IngestPoint> ingest;
    for (u32 threads : threadGrid) {
        genpair::DriverConfig config;
        config.threads = threads;

        // End-to-end wall seconds of one full streaming run; the SAM
        // bytes come back so the two spine shapes can be diffed.
        auto endToEnd = [&](u32 io_threads, std::string *samOut,
                            genpair::StreamingResult *resOut) {
            std::istringstream i1(fq1), i2(fq2);
            std::ostringstream samOs;
            genomics::SamWriter sam(samOs, *dataset.reference);
            sam.writeHeader();
            genpair::StreamingMapper mapper(*dataset.reference, seedmap,
                                            config, 256, io_threads);
            auto result = mapper.run(i1, i2, sam);
            if (samOut)
                *samOut = samOs.str();
            if (resOut)
                *resOut = result;
            return result.total.seconds;
        };

        IngestPoint pt;
        pt.threads = threads;
        pt.ioThreads = std::min(8u, std::max(2u, threads));

        std::string samSingle, samSpine;
        genpair::StreamingResult spineRes;
        constexpr int kReps = 3;
        double singleSecs = endToEnd(1, &samSingle, nullptr);
        double spineSecs = endToEnd(pt.ioThreads, &samSpine, &spineRes);
        if (samSingle != samSpine) {
            std::fprintf(stderr,
                         "spine/single-reader SAM mismatch at %u "
                         "threads\n",
                         threads);
            return 1;
        }
        for (int rep = 1; rep < kReps; ++rep) {
            singleSecs = std::min(singleSecs, endToEnd(1, nullptr,
                                                       nullptr));
            spineSecs = std::min(
                spineSecs, endToEnd(pt.ioThreads, nullptr, &spineRes));
        }
        pt.singleReaderPairsPerSec =
            singleSecs > 0 ? pairs.size() / singleSecs : 0;
        pt.spinePairsPerSec =
            spineSecs > 0 ? pairs.size() / spineSecs : 0;
        pt.readerStallSecs = spineRes.stats.readerStallSeconds;
        pt.writerStallSecs = spineRes.stats.writerStallSeconds;
        ingest.push_back(pt);
    }

    util::Table table({ "threads", "chunk", "chunks", "pairs/s" });
    for (const auto &pt : grid) {
        table.row()
            .cell(static_cast<double>(pt.threads), 0)
            .cell(static_cast<double>(pt.chunkPairs), 0)
            .cell(static_cast<double>(pt.chunks), 0)
            .cell(pt.pairsPerSec, 0);
    }
    table.print("driver scaling: threads x chunk size");

    util::Table ingestTable({ "threads", "io", "1-reader pairs/s",
                              "spine pairs/s", "speedup", "rd stall s",
                              "wr stall s" });
    for (const auto &pt : ingest) {
        ingestTable.row()
            .cell(static_cast<double>(pt.threads), 0)
            .cell(static_cast<double>(pt.ioThreads), 0)
            .cell(pt.singleReaderPairsPerSec, 0)
            .cell(pt.spinePairsPerSec, 0)
            .cell(pt.speedup(), 2)
            .cell(pt.readerStallSecs, 3)
            .cell(pt.writerStallSecs, 3);
    }
    ingestTable.print(
        "ingest-included end-to-end: multi-parser spine vs one reader");

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        auto num = [](double v, int prec) {
            std::ostringstream str;
            str << std::fixed << std::setprecision(prec) << v;
            return str.str();
        };
        out << "{\n  \"bench\": \"micro_driver_scaling\",\n"
            << "  \"format\": 3,\n"
            << "  \"gpx_version\": \"" << kVersion << "\",\n"
            << "  \"context\": " << simdContextJson() << ",\n"
            << "  \"pairs\": " << pairs.size() << ",\n"
            << "  \"host_threads\": " << hostThreads << ",\n"
            << "  \"max_threads\": " << maxThreads << ",\n"
            << "  \"grid\": [\n";
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const auto &pt = grid[i];
            out << "    {\"threads\": " << pt.threads
                << ", \"chunk_pairs\": " << pt.chunkPairs
                << ", \"chunks\": " << pt.chunks
                << ", \"pairs_per_s\": " << num(pt.pairsPerSec, 0)
                << "}" << (i + 1 < grid.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"ingest\": [\n";
        for (std::size_t i = 0; i < ingest.size(); ++i) {
            const auto &pt = ingest[i];
            out << "    {\"threads\": " << pt.threads
                << ", \"io_threads\": " << pt.ioThreads
                << ", \"single_reader_pairs_per_s\": "
                << num(pt.singleReaderPairsPerSec, 0)
                << ", \"spine_pairs_per_s\": "
                << num(pt.spinePairsPerSec, 0)
                << ", \"spine_vs_single_reader\": "
                << num(pt.speedup(), 2)
                << ", \"reader_stall_s\": " << num(pt.readerStallSecs, 3)
                << ", \"writer_stall_s\": " << num(pt.writerStallSecs, 3)
                << "}" << (i + 1 < ingest.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        out.flush();
        if (!out) {
            std::fprintf(stderr, "write to %s failed\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}
