/**
 * @file
 * micro_index_load — index-serving startup cost on the fig11-scale
 * reference: what every gpx_map start, serve mount and hot swap pays
 * before the first pair maps.
 *
 * The paper's offline stage amortizes index construction across read
 * sets (§4.2); what it cannot amortize is what each start pays to
 * *open* the index. The image is validated in place and served from
 * file-backed pages — SeedMap shards and the MM2-lite fallback index
 * alike — so open time is validation (plus an optional checksum sweep)
 * and the resident cost is demand-paged and kernel-shared.
 *
 * Rows:
 *  - `mmap_verify` / `mmap_noverify`: SeedMapImage::open with and
 *    without the payload checksum sweep.
 *  - `mount`: open + fallback index ready + MapperEngine start (a
 *    ParallelMapper over the image), the same steps as serve
 *    buildEpoch/refreshMount and a gpx_map start.
 *  - `mount_rebuild`: the same mount with the fallback index rebuilt
 *    from the reference instead of taken from the image — the warm-up
 *    the image's fallback sections remove (and the inline path's cost).
 *
 * Latencies are min/median of repeated in-process runs. Memory is
 * measured in a forked child per row (VmRSS delta across the open,
 * then again after a sweep that faults every SeedMap and fallback
 * page), so allocator reuse in this process cannot mask a heap build.
 * The offline side — SeedMap build, fallback build, image write and
 * the image size — is reported too, so the work that moved offline
 * stays visible.
 *
 * `--json PATH` records the result machine-readably (see
 * BENCH_index_load.json at the repo root).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common.hh"
#include "genpair/driver.hh"
#include "genpair/seedmap_io.hh"
#include "simdata/genome_generator.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "util/version.hh"

namespace {

using namespace gpx;

/** Current resident set size in KiB (VmRSS), 0 where unsupported. */
u64
currentRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            u64 kb = 0;
            std::sscanf(line.c_str(), "VmRSS: %llu",
                        reinterpret_cast<unsigned long long *>(&kb));
            return kb;
        }
    }
    return 0;
}

/** Touch every SeedMap location and fallback entry so pages fault in. */
u64
sweep(const genpair::SeedMapView &view,
      const baseline::MinimizerIndex *fallback)
{
    u64 sum = 0;
    const u32 mask = (1u << view.tableBits()) - 1;
    for (u32 h = 0; h <= mask; h += 1) {
        auto span = view.lookup(h);
        for (u32 loc : span)
            sum += loc;
    }
    if (fallback != nullptr)
        for (const auto &e : fallback->entries())
            sum += e.pos;
    return sum;
}

/** One opened (or mounted) index plus its query view. */
struct OpenedIndex
{
    std::optional<genpair::SeedMapImage> image;
    std::unique_ptr<genpair::ParallelMapper> mapper; ///< mount rows
    std::shared_ptr<const baseline::MinimizerIndex> fallback;
    genpair::SeedMapView view;
};

struct Variant
{
    std::string name;
    std::string key; ///< JSON field prefix
    std::function<OpenedIndex()> open;
};

struct Measured
{
    double minSeconds = 0;
    double medianSeconds = 0;
    u64 rssOpenKb = 0;  ///< VmRSS delta across open
    u64 rssSweepKb = 0; ///< VmRSS delta after faulting every page
};

#if !defined(_WIN32)
/** Run @p fn once in a forked child and report its RSS deltas. */
void
measureRssForked(const Variant &v, Measured &out)
{
    int fds[2];
    if (pipe(fds) != 0)
        return;
    pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        u64 before = currentRssKb();
        OpenedIndex idx = v.open();
        u64 afterOpen = currentRssKb();
        volatile u64 sink = sweep(idx.view, idx.fallback.get());
        (void)sink;
        u64 afterSweep = currentRssKb();
        u64 deltas[2] = { afterOpen - before, afterSweep - before };
        ssize_t w = write(fds[1], deltas, sizeof(deltas));
        (void)w;
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    u64 deltas[2] = { 0, 0 };
    ssize_t r = read(fds[0], deltas, sizeof(deltas));
    close(fds[0]);
    waitpid(pid, nullptr, 0);
    if (r == sizeof(deltas)) {
        out.rssOpenKb = deltas[0];
        out.rssSweepKb = deltas[1];
    }
}
#else
void
measureRssForked(const Variant &, Measured &)
{
}
#endif

Measured
measure(const Variant &v, int reps)
{
    Measured out;
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        util::Stopwatch watch;
        OpenedIndex idx = v.open();
        // A token lookup keeps the open from being optimized away and
        // matches what a real start does immediately after opening.
        volatile u64 sink = idx.view.lookup(1).size();
        (void)sink;
        times.push_back(watch.seconds());
    }
    std::sort(times.begin(), times.end());
    out.minSeconds = times.front();
    out.medianSeconds = times[times.size() / 2];
    measureRssForked(v, out);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    using namespace gpx::bench;

    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json needs a path\n");
                return 2;
            }
            jsonPath = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    banner("Index image open and mount",
           "ROADMAP one index artifact, one open path (§4.2)");

    // The fig11 reference: same genome profile the end-to-end bench maps.
    simdata::GenomeParams gp;
    gp.length = kBenchGenomeLen;
    gp.chromosomes = 2;
    gp.seed = 7;
    genomics::Reference ref = simdata::generateGenome(gp);

    // The offline side, as gpx_index runs it.
    constexpr u32 kShards = 8;
    constexpr u32 kMountThreads = 4;
    util::Stopwatch offline;
    genpair::SeedMap map =
        genpair::SeedMap::build(ref, genpair::SeedMapParams{}, kMountThreads);
    const double seedMapBuildSeconds = offline.seconds();
    offline.reset();
    const baseline::MinimizerIndex fallback(ref, baseline::MinimizerParams{});
    const double fallbackBuildSeconds = offline.seconds();
    std::printf("reference %llu bp, seed table %.1f MiB, "
                "location table %.1f MiB, fallback %llu entries\n",
                static_cast<unsigned long long>(ref.totalLength()),
                map.seedTableBytes() / 1048576.0,
                map.locationTableBytes() / 1048576.0,
                static_cast<unsigned long long>(fallback.numEntries()));

    const std::string path = "/tmp/gpx_index_load.gpx";
    offline.reset();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        genpair::saveSeedMapImage(out, ref, map, fallback, kShards);
        if (!out.good()) {
            std::fprintf(stderr, "cannot write the bench image to /tmp\n");
            return 1;
        }
    }
    const double writeSeconds = offline.seconds();
    std::ifstream sized(path, std::ios::binary | std::ios::ate);
    const u64 imageBytes = static_cast<u64>(sized.tellg());
    std::printf("offline: SeedMap build %.3f s, fallback build %.3f s, "
                "image write %.3f s, image %llu bytes\n",
                seedMapBuildSeconds, fallbackBuildSeconds, writeSeconds,
                static_cast<unsigned long long>(imageBytes));

    auto openImage = [&](bool verify) {
        OpenedIndex idx;
        genpair::SeedMapOpenOptions opts;
        opts.verifyPayload = verify;
        opts.reference = &ref;
        idx.image = genpair::SeedMapImage::open(path, opts);
        if (!idx.image) {
            std::fprintf(stderr, "bench image rejected\n");
            std::exit(1);
        }
        idx.view = idx.image->view();
        idx.fallback = idx.image->fallbackIndex();
        return idx;
    };
    // What serve buildEpoch/refreshMount and a gpx_map start run.
    auto mount = [&](bool rebuildFallback) {
        OpenedIndex idx = openImage(true);
        if (rebuildFallback)
            idx.fallback = std::make_shared<const baseline::MinimizerIndex>(
                ref, baseline::MinimizerParams{});
        genpair::DriverConfig config;
        config.threads = kMountThreads;
        config.fallbackIndex = idx.fallback;
        idx.mapper = std::make_unique<genpair::ParallelMapper>(
            ref, idx.view, config);
        return idx;
    };

    std::vector<Variant> variants;
    variants.push_back({ "mmap open (verify)", "mmap_verify",
                         [&]() { return openImage(true); } });
    variants.push_back({ "mmap open (no verify)", "mmap_noverify",
                         [&]() { return openImage(false); } });
    variants.push_back({ "mount (fallback from image)", "mount",
                         [&]() { return mount(false); } });
    variants.push_back({ "mount (fallback rebuilt)", "mount_rebuild",
                         [&]() { return mount(true); } });

    constexpr int kReps = 7;
    std::vector<Measured> results;
    results.reserve(variants.size());
    util::Table table({ "variant", "open min (ms)", "open median (ms)",
                        "RSS after open (MiB)", "RSS after sweep (MiB)" });
    for (const auto &v : variants) {
        Measured m = measure(v, kReps);
        results.push_back(m);
        table.row()
            .cell(v.name)
            .cell(m.minSeconds * 1e3, 3)
            .cell(m.medianSeconds * 1e3, 3)
            .cell(m.rssOpenKb / 1024.0, 1)
            .cell(m.rssSweepKb / 1024.0, 1);
    }
    std::printf("%s", table.toString("index image open cost").c_str());

    const double mountSpeedup =
        results[2].minSeconds > 0
            ? results[3].minSeconds / results[2].minSeconds
            : 0.0;
    std::printf("\nmount with the image's fallback index: %.2fx faster "
                "than rebuilding it (%.1f ms saved per start)\n",
                mountSpeedup,
                (results[3].minSeconds - results[2].minSeconds) * 1e3);

    if (!jsonPath.empty()) {
        std::ostringstream js;
        js << "{\n"
           << "  \"bench\": \"micro_index_load\",\n"
           << "  \"gpx_version\": \"" << gpx::kVersion << "\",\n"
           << "  \"context\": " << gpx::bench::simdContextJson() << ",\n"
           << "  \"reference_bp\": " << ref.totalLength() << ",\n"
           << "  \"image_bytes\": " << imageBytes << ",\n"
           << "  \"shards\": " << kShards << ",\n"
           << "  \"mount_threads\": " << kMountThreads << ",\n"
           << "  \"fallback_entries\": " << fallback.numEntries() << ",\n"
           << "  \"offline\": {\"seedmap_build_s\": " << seedMapBuildSeconds
           << ", \"fallback_build_s\": " << fallbackBuildSeconds
           << ", \"write_s\": " << writeSeconds << "},\n"
           << "  \"variants\": [\n";
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const auto &m = results[i];
            js << "    {\"name\": \"" << variants[i].key << "\", "
               << "\"open_min_s\": " << m.minSeconds << ", "
               << "\"open_median_s\": " << m.medianSeconds << ", "
               << "\"rss_open_kb\": " << m.rssOpenKb << ", "
               << "\"rss_sweep_kb\": " << m.rssSweepKb << "}"
               << (i + 1 < variants.size() ? "," : "") << "\n";
        }
        js << "  ],\n"
           << "  \"mount_speedup_vs_rebuild\": " << mountSpeedup << "\n}\n";
        std::ofstream out(jsonPath);
        out << js.str();
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    std::remove(path.c_str());
    return 0;
}
