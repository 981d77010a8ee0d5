/**
 * @file
 * Multi-threaded mapping driver: the "GenPair + MM2 (CPU)" software
 * configuration of the paper's evaluation (§6), which runs the GenPair
 * pipeline on general-purpose cores with Minimap2-style DP fallback.
 *
 * A thin configuration layer over MapperEngine (engine.hh), which owns
 * the persistent worker pool, the block cursor and the run timing.
 * This driver contributes the per-worker engines (Mm2Lite fallback +
 * GenPairPipeline, built once at pool start-up over the shared
 * read-only indexes) and the block function: each claimed block runs as
 * one SoA batch through the stage graph (stages.hh). Mapping is
 * per-pair pure and results land at the pair's input index, so output
 * is bit-identical to a serial run regardless of scheduling.
 */

#ifndef GPX_GENPAIR_DRIVER_HH
#define GPX_GENPAIR_DRIVER_HH

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "baseline/mm2lite.hh"
#include "genomics/sam.hh"
#include "genpair/engine.hh"
#include "genpair/pipeline.hh"
#include "genpair/seedmap.hh"
#include "util/types.hh"

namespace gpx {
namespace genpair {

/** Driver configuration. */
struct DriverConfig
{
    u32 threads = 0; ///< 0 = hardware concurrency
    GenPairParams pipeline;
    baseline::Mm2LiteParams fallback;
    bool useGenPair = true; ///< false = pure MM2-lite baseline runs

    /**
     * The fallback's minimizer index, shared read-only by every
     * worker: SeedMapImage::fallbackIndex() when mapping over an
     * image. Null = build it from the reference at pool start-up (the
     * inline path, with `fallback.minimizers`).
     */
    std::shared_ptr<const baseline::MinimizerIndex> fallbackIndex;

    /**
     * Record per-pair stage events (PairTraceRecord) for hwsim
     * co-simulation; DriverResult::trace is filled 1:1 with the input
     * when set. Off by default — tracing costs one extra SeedMap
     * lookup per seed plus the record stores.
     */
    bool recordTrace = false;

    /**
     * Light-align admission gate factory (paper SS8). Called once per
     * worker at pool start-up so each pipeline owns a thread-local gate
     * instance; empty = no gate. The workers start concurrently, so the
     * factory may be invoked from all of them at once and must be
     * thread-safe. Gate decisions must be a pure function of
     * (read, candidate) or results become schedule-dependent.
     */
    std::function<std::unique_ptr<LightAlignGate>()> gateFactory;
};

/** Batch mapping results. */
struct DriverResult
{
    /** 1:1 with input; empty when mapAll() rendered SAM instead. */
    std::vector<genomics::PairMapping> mappings;
    PipelineStats stats; ///< aggregated across workers
    /** Pure mapping wall time of this mapAll() call (see RunTiming). */
    RunTiming timing;
    /** Per-pair stage events; 1:1 with input iff recordTrace was set. */
    std::vector<PairTraceRecord> trace;
    /**
     * With a renderer: the SAM records of every engine block, in input
     * order (concatenated, the records of pairs[0..n)).
     */
    std::vector<genomics::SamBlock> sam;
};

/**
 * Parallel paired-end mapping over a shared index, backed by the
 * persistent MapperEngine pool. mapAll() is thread-safe: concurrent
 * callers (gpx_serve connection handlers, streaming chunks) queue in
 * arrival order, each owning the pool for its whole batch — the
 * workers inside a call are the parallelism.
 */
class ParallelMapper
{
  public:
    /**
     * @param map Non-owning SeedMap view shared read-only by every
     *            worker; its backing storage (owning SeedMap or
     *            mmap-backed image) must outlive the pool.
     */
    ParallelMapper(const genomics::Reference &ref,
                   const SeedMapView &map, const DriverConfig &config);

    /**
     * Map all pairs; mappings[i] corresponds to pairs[i]. Callable
     * from any thread: concurrent calls are serialized, and each
     * result (mappings, stats, timing of its own pool occupancy) is
     * the one the call would get alone.
     *
     * With @p renderer, each engine block renders its pairs' SAM
     * records on its worker right after mapping them, into
     * DriverResult::sam, and keeps the block's mappings only that long
     * (DriverResult::mappings stays empty; the timing covers rendering
     * too). Only the renderer's const render path is used, so another
     * thread may be committing through the same SamWriter meanwhile.
     */
    DriverResult mapAll(const std::vector<genomics::ReadPair> &pairs,
                        const genomics::SamWriter *renderer = nullptr);

    u32 threads() const { return engine_->threads(); }

  private:
    const genomics::Reference &ref_;
    SeedMapView map_;
    DriverConfig config_;
    /** Workers capture config_.fallbackIndex; one pool. */
    std::unique_ptr<MapperEngine> engine_;
    /** Serializes mapAll() callers around the pool + stats. */
    std::mutex mapMu_;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_DRIVER_HH
