/**
 * @file
 * Per-stage heap-allocation budget of the stage graph on a warm batch:
 * once a PairBatch has carried a batch through every stage, the query
 * and paired-adjacency stages allocate nothing, and the light-align
 * stage allocates one CIGAR per mapping it places. A counting global
 * operator new (this binary only) measures it.
 *
 * Sanitizer runtimes install their own operator new; under ASan, TSan
 * or MSan the replacement is left out and every test skips.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "baseline/mm2lite.hh"
#include "genpair/pipeline.hh"
#include "genpair/stages.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GPX_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define GPX_COUNT_ALLOCS 0
#endif
#endif
#ifndef GPX_COUNT_ALLOCS
#define GPX_COUNT_ALLOCS 1
#endif

namespace {

std::atomic<unsigned long long> gAllocs{ 0 };

} // namespace

#if GPX_COUNT_ALLOCS

namespace {

void *
countedAlloc(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t size = (n + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, size == 0 ? a : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // GPX_COUNT_ALLOCS

namespace {

using namespace gpx;

/** Allocations made by @p fn. */
template <typename Fn>
unsigned long long
allocsOf(Fn &&fn)
{
    const unsigned long long before = gAllocs.load();
    fn();
    return gAllocs.load() - before;
}

class AllocBudget : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!GPX_COUNT_ALLOCS)
            GTEST_SKIP() << "sanitizer runtime owns operator new; the "
                            "counting replacement is compiled out";
        simdata::GenomeParams gp;
        gp.length = 200000;
        gp.chromosomes = 1;
        gp.seed = 31;
        ref_ = simdata::generateGenome(gp);
        map_ = std::make_unique<genpair::SeedMap>(ref_,
                                                  genpair::SeedMapParams{});
        mm2_ = std::make_unique<baseline::Mm2Lite>(
            ref_, baseline::Mm2LiteParams{});
        simdata::DiploidGenome donor(ref_, simdata::VariantParams{});
        simdata::ReadSimulator sim(donor, simdata::ReadSimParams{});
        pairs_ = sim.simulate(300);
        // A pair with a read shorter than one seed rides along: it is
        // routed at the seed stage and must cost the query nothing.
        genomics::ReadPair shortPair = pairs_.front();
        shortPair.second.seq = ref_.windowView(5000, 10).materialize();
        pairs_.push_back(std::move(shortPair));
        out_.resize(pairs_.size());
    }

    genomics::Reference ref_;
    std::unique_ptr<genpair::SeedMap> map_;
    std::unique_ptr<baseline::Mm2Lite> mm2_;
    std::vector<genomics::ReadPair> pairs_;
    std::vector<genomics::PairMapping> out_;
};

TEST_F(AllocBudget, WarmStagesStayWithinBudget)
{
    const genpair::SeedMapView view = map_->view();
    const genpair::GenPairParams params;
    const genpair::PartitionedSeeder seeder(view);
    const genpair::LightAligner light(ref_, params.light);
    genpair::PipelineStats stats;
    const genpair::StageContext ctx{ ref_,  view,   params,     seeder,
                                     light, nullptr, mm2_.get(), stats };
    genpair::PairBatch batch;

    // Cold pass: every scratch vector grows to this batch's size.
    batch.bind(pairs_.data(), pairs_.size(), out_.data(), nullptr);
    genpair::runStageGraph(ctx, batch);

    // Warm pass over the same pairs, stage by stage.
    batch.bind(pairs_.data(), pairs_.size(), out_.data(), nullptr);
    genpair::runSeedStage(ctx, batch);
    EXPECT_EQ(allocsOf([&] { genpair::runQueryStage(ctx, batch); }), 0u);
    EXPECT_EQ(allocsOf([&] { genpair::runPaFilterStage(ctx, batch); }),
              0u);
    const u64 alignedBefore = stats.lightAligned;
    const unsigned long long lightAllocs =
        allocsOf([&] { genpair::runLightAlignStage(ctx, batch); });
    const u64 placed = 2 * (stats.lightAligned - alignedBefore);
    ASSERT_GT(placed, 0u);
    EXPECT_LE(lightAllocs, placed)
        << "more than one allocation per placed mapping";
    genpair::runFallbackStage(ctx, batch);

    // The short pair took fallback exit 1 (full DP) instead of seeding.
    EXPECT_EQ(batch.route.back(), genpair::PairRoute::SeedMiss);
    EXPECT_EQ(out_.back().path, genomics::MappingPath::FullDpFallback);
}

} // namespace
