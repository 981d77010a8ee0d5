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
ParallelMapper::mapAll(const std::vector<genomics::ReadPair> &pairs)
{
    DriverResult result;
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
    genomics::PairMapping *out = result.mappings.data();
    PairTraceRecord *trace =
        config_.recordTrace ? result.trace.data() : nullptr;
    const bool useGenPair = config_.useGenPair;

    result.timing = engine_->submit(
        pairs.size(), [&](WorkerContext &wc, u64 begin, u64 end) {
            auto &ctx = static_cast<PairWorkerContext &>(wc);
            if (useGenPair) {
                ctx.pipeline.mapBatch(in + begin, end - begin,
                                      out + begin,
                                      trace ? trace + begin : nullptr);
            } else {
                for (u64 i = begin; i < end; ++i)
                    out[i] = ctx.fallback.mapPair(in[i]);
            }
        });

    engine_->forEachContext([&](WorkerContext &ctx) {
        result.stats +=
            static_cast<PairWorkerContext &>(ctx).pipeline.stats();
    });
    return result;
}

} // namespace genpair
} // namespace gpx
