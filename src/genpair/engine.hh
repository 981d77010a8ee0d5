/**
 * @file
 * MapperEngine: the single driver core behind every host mapping
 * driver.
 *
 * ParallelMapper, StreamingMapper and LongReadDriver used to each own a
 * copy of the same orchestration — spawn workers, partition the input,
 * merge per-worker statistics, time the run. The engine owns all of it
 * exactly once: a persistent worker pool (per-worker contexts built
 * once at start-up, on the worker's own thread), an atomic block
 * cursor with a guided grain (big blocks first, shrinking to the
 * minimum at the tail) for load balance, and the RunTiming
 * measurement. Drivers are thin configuration layers: they provide a
 * context factory (their per-worker engines) and a block-mapping
 * function, and the engine guarantees that item i of a job is mapped
 * exactly once, by exactly one context — results landing at input
 * index keep output bit-identical to a serial run regardless of
 * scheduling.
 */

#ifndef GPX_GENPAIR_ENGINE_HH
#define GPX_GENPAIR_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/types.hh"

namespace gpx {
namespace genpair {

/**
 * Wall-time accounting of one driver run, filled by MapperEngine (the
 * one place that times mapping). Replaces the hand-rolled
 * seconds/pairsPerSec/mapSeconds fields every driver result used to
 * duplicate. One-time pool costs (thread spawn, per-worker engine
 * construction) are paid at engine start-up and never charged here, so
 * itemsPerSec is comparable across chunk sizes.
 */
struct RunTiming
{
    double seconds = 0;
    double itemsPerSec = 0; ///< read pairs (or long reads) per second

    /** Timing of @p items of work done in @p secs wall seconds. */
    static RunTiming
    of(u64 items, double secs)
    {
        RunTiming t;
        t.seconds = secs;
        t.itemsPerSec =
            secs > 0 ? static_cast<double>(items) / secs : 0;
        return t;
    }

    /** Throughput in Mbp/s for paired-end reads of @p read_len. */
    double
    mbpsFor(u32 read_len) const
    {
        return itemsPerSec * 2.0 * read_len / 1e6;
    }
};

/**
 * Base class of a driver's per-worker state (mapping engines, gates,
 * scratch). Built once per worker at pool start-up and reused across
 * every submit() call.
 */
class WorkerContext
{
  public:
    virtual ~WorkerContext() = default;
};

/**
 * The persistent worker pool + block cursor. submit() is thread-safe;
 * forEachContext() must only be called while no job is in flight.
 */
class MapperEngine
{
  public:
    /** Builds one worker's context; called on that worker's thread,
     *  concurrently with the other workers' factories. */
    using ContextFactory =
        std::function<std::unique_ptr<WorkerContext>(u32 slot)>;

    /** Maps items [begin, end) of the current job with @p context. */
    using BlockFn =
        std::function<void(WorkerContext &context, u64 begin, u64 end)>;

    /**
     * @param threads Worker count; 0 = hardware concurrency.
     * @param factory Per-worker context builder.
     * @param block_items Minimum items a worker claims per cursor grab
     *        (the load-balance grain and the smallest stage-graph
     *        batch). Big jobs claim guided blocks of up to 16x this:
     *        a share of the unclaimed items that shrinks as the job
     *        drains (engine.cc gives the rule).
     */
    MapperEngine(u32 threads, ContextFactory factory,
                 u64 block_items = kDefaultBlockItems);
    ~MapperEngine();

    MapperEngine(const MapperEngine &) = delete;
    MapperEngine &operator=(const MapperEngine &) = delete;

    /**
     * Run @p fn over all blocks of [0, items) and return the measured
     * timing. Blocks are claimed off a shared atomic cursor; every item
     * is processed exactly once. The block partition depends only on
     * @p items, threads() and blockItems(), never on scheduling.
     *
     * Callable from any thread, concurrently: submitters are
     * serialized in arrival order (one job owns the whole pool at a
     * time — the workers inside a job are the parallelism), which is
     * exactly the admission discipline a resident server wants: a
     * request's batch runs on every core, requests queue behind each
     * other. The returned timing covers only this job's pool
     * occupancy, not the time spent waiting behind other submitters.
     */
    RunTiming submit(u64 items, const BlockFn &fn);

    /**
     * Visit every worker context from the calling thread (stats reset
     * before a run, stats merge after). Engine must be idle.
     */
    void forEachContext(const std::function<void(WorkerContext &)> &fn);

    u32 threads() const { return threads_; }
    u64 blockItems() const { return blockItems_; }

    /** Default minimum grain (= the smallest SoA batch size). */
    static constexpr u64 kDefaultBlockItems = 64;

  private:
    void workerLoop(u32 slot, const ContextFactory &factory);

    /** Items the block starting at @p begin claims (before clipping). */
    u64 grainAt(u64 begin, u64 items) const;

    u32 threads_;
    u64 blockItems_;

    /** Serializes submit() callers. */
    std::mutex submitMu_;

    // Job hand-off: submit() publishes the job under mu_, bumps jobSeq_
    // and wakes the pool; workers race the shared cursor and the last
    // one out signals completion.
    std::mutex mu_;
    std::condition_variable jobReady_;
    std::condition_variable jobDone_;
    u64 jobSeq_ = 0;
    u32 workersReady_ = 0;
    u32 workersLeft_ = 0;
    bool shutdown_ = false;
    u64 jobItems_ = 0;
    const BlockFn *jobFn_ = nullptr;
    std::atomic<u64> cursor_{ 0 };
    std::vector<std::unique_ptr<WorkerContext>> contexts_;
    std::vector<std::thread> workers_;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_ENGINE_HH
