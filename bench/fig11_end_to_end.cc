/**
 * @file
 * Fig. 11 + Table 5 — End-to-end comparison: throughput per unit area
 * and per unit power for every evaluated system, plus the absolute
 * accelerator operating points. GenPairX+GenDP is *derived* (NMSL
 * simulation + measured workload + cost roll-up); the baselines are the
 * reported-constant models.
 */

#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "common.hh"
#include "hwsim/baseline_models.hh"
#include "hwsim/nmsl.hh"
#include "hwsim/pipeline_model.hh"
#include "util/version.hh"

namespace {

/** Paper-reported speedups (per-area, per-W) of GenPairX+GenDP. */
struct PaperSpeedup
{
    double area;
    double watt;
};
constexpr PaperSpeedup kPaperVsMm2{ 958, 1575 };
constexpr PaperSpeedup kPaperVsGenCache{ 2.35, 1.43 };
constexpr PaperSpeedup kPaperVsGenDp{ 1.97, 2.38 };
constexpr PaperSpeedup kPaperVsBwaGpu{ 3053, 1685 };

} // namespace

int
main(int argc, char **argv)
{
    // `--json PATH` additionally writes the result as a machine-readable
    // baseline file (see BENCH_fig11_seed.json at the repo root).
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
    using namespace gpx;
    using namespace gpx::bench;

    banner("End-to-end throughput per area and per power",
           "Fig. 11 + Table 5 (paper: 958x/1575x vs MM2, 2.35x/1.43x vs "
           "GenCache, 1.97x/2.38x vs GenDP)");

    MappingStack s = buildStack(1);
    hwsim::WorkloadProfile measured = measureProfile(s);
    auto workload = hwsim::buildWorkload(*s.seedmap, s.dataset.pairs);
    hwsim::NmslConfig cfg;
    cfg.windowSize = 1024;
    auto nmsl = hwsim::NmslSim(cfg).run(workload);

    hwsim::PipelineModel pm(2.0);
    auto design = pm.design(nmsl, cfg, measured);
    auto ours = design.asSystemPoint("GenPairX+GenDP (simulated)");

    // Long-read operating point (paper §4.7: ~10x below short reads).
    hwsim::LongReadWorkload lw;
    double longMbps = pm.longReadMbps(design, lw);

    std::vector<hwsim::SystemPoint> systems =
        hwsim::BaselineModels::all();
    systems.push_back(ours);
    systems.push_back(hwsim::BaselineModels::genPairXReported());
    systems.push_back({ "GenPairX+GenDP (Long Reads)", longMbps,
                        ours.areaMm2, ours.powerW });

    util::Table table({ "system", "Mbp/s", "mm2", "W", "Mbp/s/mm2",
                        "Mbp/s/W" });
    for (const auto &sys : systems) {
        table.row()
            .cell(sys.name)
            .cell(sys.throughputMbps, 0)
            .cell(sys.areaMm2, 1)
            .cell(sys.powerW, 1)
            .cell(sys.mbpsPerMm2(), 2)
            .cell(sys.mbpsPerW(), 2);
    }
    table.print("Fig. 11 / Table 5: end-to-end comparison");

    auto mm2 = hwsim::BaselineModels::mm2Cpu();
    auto gc = hwsim::BaselineModels::genCache();
    auto gd = hwsim::BaselineModels::genDp();
    auto gpu = hwsim::BaselineModels::bwaMemGpu();
    std::printf("\nmeasured GenPairX+GenDP vs baselines:\n"
                "  vs MM2:      %7.0fx per-area, %7.0fx per-W "
                "(paper %gx / %gx)\n"
                "  vs GenCache: %7.2fx per-area, %7.2fx per-W "
                "(paper %gx / %gx)\n"
                "  vs GenDP:    %7.2fx per-area, %7.2fx per-W "
                "(paper %gx / %gx)\n"
                "  vs BWA-GPU:  %7.0fx per-area, %7.0fx per-W "
                "(paper %gx / %gx)\n",
                ours.mbpsPerMm2() / mm2.mbpsPerMm2(),
                ours.mbpsPerW() / mm2.mbpsPerW(), kPaperVsMm2.area,
                kPaperVsMm2.watt, ours.mbpsPerMm2() / gc.mbpsPerMm2(),
                ours.mbpsPerW() / gc.mbpsPerW(), kPaperVsGenCache.area,
                kPaperVsGenCache.watt,
                ours.mbpsPerMm2() / gd.mbpsPerMm2(),
                ours.mbpsPerW() / gd.mbpsPerW(), kPaperVsGenDp.area,
                kPaperVsGenDp.watt,
                ours.mbpsPerMm2() / gpu.mbpsPerMm2(),
                ours.mbpsPerW() / gpu.mbpsPerW(), kPaperVsBwaGpu.area,
                kPaperVsBwaGpu.watt);
    std::printf("long reads: %.0f Mbp/s = %.1fx below short reads "
                "(paper: roughly one order of magnitude)\n",
                longMbps, ours.throughputMbps / longMbps);

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        // Streamed field by field (no fixed line buffers) so oversize
        // names or values can never truncate into malformed JSON.
        auto num = [](double v, int prec) {
            std::ostringstream str;
            str << std::fixed << std::setprecision(prec) << v;
            return str.str();
        };
        out << "{\n  \"bench\": \"fig11_end_to_end\",\n"
            << "  \"gpx_version\": \"" << kVersion << "\",\n"
            << "  \"context\": " << simdContextJson() << ",\n"
            << "  \"systems\": [\n";
        for (std::size_t i = 0; i < systems.size(); ++i) {
            const auto &sys = systems[i];
            out << "    {\"name\": \"" << util::jsonEscape(sys.name)
                << "\", \"mbp_per_s\": " << num(sys.throughputMbps, 0)
                << ", \"mm2\": " << num(sys.areaMm2, 1)
                << ", \"watts\": " << num(sys.powerW, 1)
                << ", \"mbp_s_per_mm2\": " << num(sys.mbpsPerMm2(), 2)
                << ", \"mbp_s_per_w\": " << num(sys.mbpsPerW(), 2)
                << "}" << (i + 1 < systems.size() ? "," : "") << "\n";
        }
        auto speedup = [&](const hwsim::SystemPoint &base,
                           const char *key, const PaperSpeedup &paper,
                           bool last) {
            out << "    \"" << key << "\": {\"per_area\": "
                << num(ours.mbpsPerMm2() / base.mbpsPerMm2(), 2)
                << ", \"per_watt\": "
                << num(ours.mbpsPerW() / base.mbpsPerW(), 2)
                << ", \"paper_per_area\": " << paper.area
                << ", \"paper_per_watt\": " << paper.watt << "}"
                << (last ? "" : ",") << "\n";
        };
        out << "  ],\n  \"speedups_vs_baselines\": {\n";
        speedup(mm2, "mm2", kPaperVsMm2, false);
        speedup(gc, "gencache", kPaperVsGenCache, false);
        speedup(gd, "gendp", kPaperVsGenDp, false);
        speedup(gpu, "bwa_gpu", kPaperVsBwaGpu, true);
        out << "  },\n  \"long_reads\": {\"mbp_per_s\": "
            << num(longMbps, 0) << ", \"slowdown_vs_short_reads\": "
            << num(ours.throughputMbps / longMbps, 1) << "}\n}\n";
        out.flush();
        if (!out) {
            std::fprintf(stderr, "write to %s failed\n", jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}
