#include "genpair/engine.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/timer.hh"

namespace gpx {
namespace genpair {

namespace {

// Guided self-scheduling (Polychronopoulos & Kuck, 1987): a block is a
// 1/(kGuidedShare * threads) share of the items still unclaimed, so a
// big job starts with big blocks and the tail shrinks back to the
// minimum grain for load balance. The block is also the stage-graph
// batch, and the DP fallback fills its SIMD lanes across the ~5% of a
// batch's pairs that reach it: fixed 64-pair blocks hand it ~3 pairs
// per sweep and leave three quarters of the AVX-512 lanes idle. The
// kMaxGrainFactor cap bounds a block's scratch and its share of the
// tail. Jobs under ~kGuidedShare * threads * blockItems items (serve's
// requests) never leave the minimum grain.
constexpr u64 kGuidedShare = 4;
constexpr u64 kMaxGrainFactor = 16;

} // namespace

MapperEngine::MapperEngine(u32 threads, ContextFactory factory,
                           u64 block_items)
    : threads_(threads ? threads
                       : std::max(1u,
                                  std::thread::hardware_concurrency())),
      blockItems_(block_items == 0 ? 1 : block_items)
{
    gpx_assert(factory, "MapperEngine needs a context factory");
    gpx_assert(blockItems_ <= ~u64{ 0 } / kMaxGrainFactor,
               "MapperEngine block grain out of range");
    contexts_.resize(threads_);
    workers_.reserve(threads_);
    for (u32 t = 0; t < threads_; ++t)
        workers_.emplace_back(
            [this, t, factory]() { workerLoop(t, factory); });
    // Context construction is a pool start-up cost, not a mapping
    // cost: don't return until every worker has built its context, so
    // the first job's stopwatch measures mapping only.
    std::unique_lock<std::mutex> lock(mu_);
    jobDone_.wait(lock, [&] { return workersReady_ == threads_; });
}

MapperEngine::~MapperEngine()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    jobReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
MapperEngine::workerLoop(u32 slot, const ContextFactory &factory)
{
    // Contexts are built once per worker, on the worker's own thread
    // (first-touch locality), and live for the pool's lifetime.
    contexts_[slot] = factory(slot);

    {
        std::lock_guard<std::mutex> lock(mu_);
        ++workersReady_;
    }
    jobDone_.notify_all();

    u64 seenJob = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            jobReady_.wait(lock, [&] {
                return shutdown_ || jobSeq_ != seenJob;
            });
            if (shutdown_)
                return;
            seenJob = jobSeq_;
        }

        const u64 items = jobItems_;
        const BlockFn &fn = *jobFn_;
        u64 begin = cursor_.load(std::memory_order_relaxed);
        for (;;) {
            if (begin >= items)
                break;
            // The grain depends only on `begin`, so the partition is a
            // function of (items, threads, blockItems) alone, whoever
            // wins each claim.
            const u64 end = begin + std::min(grainAt(begin, items),
                                             items - begin);
            if (!cursor_.compare_exchange_weak(
                    begin, end, std::memory_order_relaxed))
                continue; // `begin` now holds the cursor's new value
            fn(*contexts_[slot], begin, end);
            begin = cursor_.load(std::memory_order_relaxed);
        }

        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--workersLeft_ == 0)
                jobDone_.notify_one();
        }
    }
}

u64
MapperEngine::grainAt(u64 begin, u64 items) const
{
    const u64 guided = (items - begin) / (kGuidedShare * threads_);
    return std::clamp(guided, blockItems_, kMaxGrainFactor * blockItems_);
}

RunTiming
MapperEngine::submit(u64 items, const BlockFn &fn)
{
    std::lock_guard<std::mutex> submitLock(submitMu_);
    util::Stopwatch watch;
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobItems_ = items;
        jobFn_ = &fn;
        cursor_.store(0, std::memory_order_relaxed);
        workersLeft_ = threads_;
        ++jobSeq_;
    }
    jobReady_.notify_all();
    {
        std::unique_lock<std::mutex> lock(mu_);
        jobDone_.wait(lock, [&] { return workersLeft_ == 0; });
    }
    return RunTiming::of(items, watch.seconds());
}

void
MapperEngine::forEachContext(
    const std::function<void(WorkerContext &)> &fn)
{
    for (auto &ctx : contexts_)
        fn(*ctx);
}

} // namespace genpair
} // namespace gpx
