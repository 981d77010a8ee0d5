#include "genpair/driver.hh"

#include <algorithm>

#include "util/logging.hh"

namespace gpx {
namespace genpair {

namespace {

/** Per-worker engines: DP fallback + stage-graph pipeline + gate. */
struct PairWorkerContext : WorkerContext
{
    baseline::Mm2Lite fallback;
    GenPairPipeline pipeline;
    std::unique_ptr<LightAlignGate> gate;
    /** A rendering job's mappings: one block's, reused per block. */
    std::vector<genomics::PairMapping> blockMappings;
    /** The block's pairs as mapPairsBatch() takes them (baseline). */
    std::vector<const genomics::ReadPair *> blockPairs;

    PairWorkerContext(
        const genomics::Reference &ref, const SeedMapView &map,
        const DriverConfig &config,
        std::shared_ptr<const baseline::MinimizerIndex> index)
        : fallback(ref, config.fallback, std::move(index)),
          pipeline(ref, map, config.pipeline, &fallback)
    {
        if (config.gateFactory) {
            gate = config.gateFactory();
            pipeline.setLightAlignGate(gate.get());
        }
    }
};

} // namespace

ParallelMapper::ParallelMapper(const genomics::Reference &ref,
                               const SeedMapView &map,
                               const DriverConfig &config)
    : ref_(ref), map_(map), config_(config)
{
    // The MM2-lite baseline path never fills trace records; a trace of
    // all-zero (Pending) routes would be silently unreplayable.
    gpx_assert(!config_.recordTrace || config_.useGenPair,
               "recordTrace records GenPair stage events; it requires "
               "useGenPair");
    if (!config_.fallbackIndex)
        config_.fallbackIndex =
            std::make_shared<const baseline::MinimizerIndex>(
                ref, config_.fallback.minimizers);
    engine_ = std::make_unique<MapperEngine>(
        config_.threads, [this](u32 /*slot*/) {
            return std::make_unique<PairWorkerContext>(
                ref_, map_, config_, config_.fallbackIndex);
        });
}

DriverResult
ParallelMapper::mapAll(const std::vector<genomics::ReadPair> &pairs,
                       const genomics::SamWriter *renderer)
{
    DriverResult result;
    // A rendering job keeps each block's mappings only until they are
    // rendered; otherwise they land at the pairs' input indices.
    if (renderer == nullptr)
        result.mappings.resize(pairs.size());
    if (config_.recordTrace)
        result.trace.resize(pairs.size());

    // The stats reset / job / stats merge sequence touches every
    // worker context; one caller at a time may own it.
    std::lock_guard<std::mutex> lock(mapMu_);
    engine_->forEachContext([](WorkerContext &ctx) {
        static_cast<PairWorkerContext &>(ctx).pipeline.resetStats();
    });

    const genomics::ReadPair *in = pairs.data();
    PairTraceRecord *trace =
        config_.recordTrace ? result.trace.data() : nullptr;
    const bool useGenPair = config_.useGenPair;

    // Rendered blocks finish in any order; keyed by their first pair,
    // they are sorted back into input order after the job.
    std::vector<std::pair<u64, genomics::SamBlock>> rendered;
    std::mutex renderedMu;

    result.timing = engine_->submit(
        pairs.size(), [&](WorkerContext &wc, u64 begin, u64 end) {
            auto &ctx = static_cast<PairWorkerContext &>(wc);
            const u64 n = end - begin;
            genomics::PairMapping *out;
            if (renderer != nullptr) {
                ctx.blockMappings.resize(n);
                out = ctx.blockMappings.data();
            } else {
                out = result.mappings.data() + begin;
            }
            if (useGenPair) {
                ctx.pipeline.mapBatch(in + begin, n, out,
                                      trace ? trace + begin : nullptr);
            } else {
                ctx.blockPairs.resize(n);
                for (u64 i = 0; i < n; ++i)
                    ctx.blockPairs[i] = in + begin + i;
                ctx.fallback.mapPairsBatch(ctx.blockPairs.data(), n, out);
            }
            if (renderer != nullptr) {
                genomics::SamBlock block;
                block.records = 2 * n;
                renderer->renderPairs(block.bytes, in + begin, out, n);
                std::lock_guard<std::mutex> guard(renderedMu);
                rendered.emplace_back(begin, std::move(block));
            }
        });

    std::sort(rendered.begin(), rendered.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    result.sam.reserve(rendered.size());
    for (auto &entry : rendered)
        result.sam.push_back(std::move(entry.second));

    engine_->forEachContext([&](WorkerContext &ctx) {
        result.stats +=
            static_cast<PairWorkerContext &>(ctx).pipeline.stats();
    });
    return result;
}

} // namespace genpair
} // namespace gpx
