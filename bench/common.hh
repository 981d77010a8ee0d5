/**
 * @file
 * Shared helpers for the bench harnesses: standard dataset sizes, profile
 * measurement and pretty printing. Every bench prints the paper's
 * reference values next to the measured ones so EXPERIMENTS.md can be
 * regenerated by running the binaries.
 */

#ifndef GPX_BENCH_COMMON_HH
#define GPX_BENCH_COMMON_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/mm2lite.hh"
#include "genpair/pipeline.hh"
#include "genpair/seedmap.hh"
#include "hwsim/module_models.hh"
#include "simdata/datasets.hh"
#include "util/json.hh"
#include "util/simd.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace gpx {
namespace bench {

/** Default genome size used by the benches (a GRCh38 stand-in). */
inline constexpr u64 kBenchGenomeLen = u64{4} << 20; // 4 Mbp

/** Standard pair count for statistics benches. */
inline constexpr u64 kBenchPairs = 8000;

/** One fully wired mapping stack over a dataset. */
struct MappingStack
{
    simdata::Dataset dataset;
    std::unique_ptr<genpair::SeedMap> seedmap;
    std::unique_ptr<baseline::Mm2Lite> mm2;
    std::unique_ptr<genpair::GenPairPipeline> pipeline;
};

/** Build the full stack for one dataset profile. */
inline MappingStack
buildStack(u32 dataset_index, u64 genome_len = kBenchGenomeLen,
           u64 num_pairs = kBenchPairs, u32 filter_threshold = 500)
{
    MappingStack s;
    s.dataset = simdata::buildDataset(
        simdata::datasetConfig(dataset_index, genome_len, num_pairs));
    genpair::SeedMapParams sp;
    sp.filterThreshold = filter_threshold;
    s.seedmap = std::make_unique<genpair::SeedMap>(*s.dataset.reference,
                                                   sp);
    s.mm2 = std::make_unique<baseline::Mm2Lite>(
        *s.dataset.reference, baseline::Mm2LiteParams{});
    s.pipeline = std::make_unique<genpair::GenPairPipeline>(
        *s.dataset.reference, *s.seedmap, genpair::GenPairParams{},
        s.mm2.get());
    return s;
}

/**
 * Run the GenPair pipeline over a dataset and derive the hardware-sizing
 * workload profile (the paper's §7.2 software-profiling methodology).
 */
inline hwsim::WorkloadProfile
measureProfile(MappingStack &s)
{
    u64 chainBefore = s.mm2->dpWork().chainCells;
    u64 alignBefore = s.mm2->dpWork().alignCells;
    for (const auto &pair : s.dataset.pairs)
        s.pipeline->mapPair(pair);
    const auto &st = s.pipeline->stats();
    u64 fullDp = st.seedMissFallback + st.paFilterFallback;
    u64 dpPairs = fullDp + st.lightAlignFallback;
    double chainCells =
        fullDp ? static_cast<double>(s.mm2->dpWork().chainCells -
                                     chainBefore) /
                     fullDp
               : hwsim::WorkloadProfile{}.chainCellsPerFullDpPair;
    double alignCells =
        dpPairs ? static_cast<double>(s.mm2->dpWork().alignCells -
                                      alignBefore) /
                      dpPairs
                : hwsim::WorkloadProfile{}.alignCellsPerDpPair;
    return hwsim::WorkloadProfile::fromStats(
        st, 150, chainCells, alignCells,
        s.seedmap->stats().queryWeightedLocations);
}

/**
 * The standard `"context"` block every bench JSON carries: which SIMD
 * backend the batch kernels dispatched to and why, so every recorded
 * number names its code path. Emitted as a complete JSON object.
 */
inline std::string
simdContextJson()
{
    std::string out = "{\"simd_backend\": \"";
    out += util::simdBackendName(util::activeSimdBackend());
    out += "\", \"simd_max\": \"";
    out += util::simdBackendName(util::maxSimdBackend());
    out += "\", \"simd_reason\": \"";
    out += util::jsonEscape(util::simdBackendReason());
    out += "\"}";
    return out;
}

/** Print a standard bench banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::printf("\n################################################\n"
                "# %s\n# reproduces: %s\n"
                "################################################\n\n",
                what.c_str(), paper_ref.c_str());
}

} // namespace bench
} // namespace gpx

#endif // GPX_BENCH_COMMON_HH
