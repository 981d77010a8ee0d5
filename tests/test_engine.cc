/**
 * @file
 * MapperEngine tests: the one driver core must hand every item of a
 * job to exactly one worker context, reuse contexts across runs, and
 * serve all three driver configuration layers (pair, streaming via
 * ParallelMapper, long-read) with bit-identical output for any thread
 * count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "genpair/engine.hh"
#include "genpair/longread.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"

namespace {

using namespace gpx;
using genpair::MapperEngine;
using genpair::WorkerContext;

/** Context recording which items its worker processed. */
struct RecordingContext : WorkerContext
{
    std::vector<u64> items;
    u64 runsSeen = 0;
};

TEST(MapperEngineTest, EveryItemProcessedExactlyOnce)
{
    MapperEngine engine(4, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    constexpr u64 kItems = 1000;
    auto timing = engine.submit(kItems, [](WorkerContext &ctx, u64 begin,
                                           u64 end) {
        auto &rec = static_cast<RecordingContext &>(ctx);
        for (u64 i = begin; i < end; ++i)
            rec.items.push_back(i);
    });
    EXPECT_GE(timing.seconds, 0.0);
    EXPECT_GT(timing.itemsPerSec, 0.0);

    std::set<u64> seen;
    engine.forEachContext([&](WorkerContext &ctx) {
        for (u64 i : static_cast<RecordingContext &>(ctx).items)
            EXPECT_TRUE(seen.insert(i).second) << "item " << i
                                               << " processed twice";
    });
    EXPECT_EQ(seen.size(), kItems);
}

/** The block partition of one run, sorted by begin. */
std::vector<std::pair<u64, u64>>
recordPartition(MapperEngine &engine, u64 items)
{
    std::mutex mu;
    std::vector<std::pair<u64, u64>> blocks;
    engine.submit(items, [&](WorkerContext &, u64 begin, u64 end) {
        std::lock_guard<std::mutex> lock(mu);
        blocks.emplace_back(begin, end);
    });
    std::sort(blocks.begin(), blocks.end());
    return blocks;
}

TEST(MapperEngineTest, GuidedPartitionIsExactBoundedAndDeterministic)
{
    for (u32 threads : { 1u, 3u, 4u, 8u }) {
        for (u64 minGrain : { u64{ 1 }, u64{ 4 }, u64{ 64 } }) {
            MapperEngine engine(
                threads,
                [](u32) { return std::make_unique<RecordingContext>(); },
                minGrain);
            for (u64 items : { u64{ 0 }, u64{ 1 }, u64{ 63 }, u64{ 64 },
                               u64{ 1000 }, u64{ 65536 },
                               u64{ 70001 } }) {
                SCOPED_TRACE(::testing::Message()
                             << "threads " << threads << ", min grain "
                             << minGrain << ", items " << items);
                const auto blocks = recordPartition(engine, items);

                // Sorted blocks tile [0, items): every item exactly once.
                u64 next = 0;
                for (const auto &[begin, end] : blocks) {
                    ASSERT_EQ(begin, next);
                    ASSERT_LT(begin, end);
                    next = end;
                }
                EXPECT_EQ(next, items);

                // Only the last block may fall short of the minimum.
                for (std::size_t b = 0; b + 1 < blocks.size(); ++b) {
                    const u64 size = blocks[b].second - blocks[b].first;
                    EXPECT_GE(size, minGrain) << "block " << b;
                    EXPECT_LE(size, 16 * minGrain) << "block " << b;
                }
                if (!blocks.empty()) {
                    EXPECT_LE(blocks.back().second - blocks.back().first,
                              16 * minGrain);
                }

                EXPECT_EQ(recordPartition(engine, items), blocks)
                    << "partition changed between runs";
            }
        }
    }
}

TEST(MapperEngineTest, BigJobsClaimBlocksAboveTheMinimumGrain)
{
    // A 65,536-pair streaming chunk: a fixed 64-item grain would
    // dispatch 1,024 blocks; the guided grain starts at 16x that size.
    MapperEngine engine(4, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    constexpr u64 kItems = 65536;
    const auto blocks = recordPartition(engine, kItems);
    EXPECT_LT(blocks.size(),
              kItems / MapperEngine::kDefaultBlockItems);
    EXPECT_EQ(blocks.front().second - blocks.front().first,
              16 * MapperEngine::kDefaultBlockItems);
    // The tail still shrinks to the minimum for load balance.
    EXPECT_LE(blocks.back().second - blocks.back().first,
              MapperEngine::kDefaultBlockItems);
}

TEST(MapperEngineTest, SmallJobsKeepTheMinimumGrain)
{
    // Serve-sized requests (256 pairs on 4 threads) are cut exactly as
    // before: fixed 64-item blocks.
    MapperEngine engine(4, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    const auto blocks = recordPartition(engine, 256);
    ASSERT_EQ(blocks.size(), 4u);
    for (std::size_t b = 0; b < blocks.size(); ++b)
        EXPECT_EQ(blocks[b], std::make_pair(u64{ 64 } * b,
                                            u64{ 64 } * (b + 1)));
}

TEST(MapperEngineTest, ContextsPersistAcrossRuns)
{
    MapperEngine engine(3, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    for (int run = 0; run < 5; ++run)
        engine.submit(64, [](WorkerContext &ctx, u64, u64) {
            ++static_cast<RecordingContext &>(ctx).runsSeen;
        });
    u64 totalBlocks = 0;
    engine.forEachContext([&](WorkerContext &ctx) {
        totalBlocks += static_cast<RecordingContext &>(ctx).runsSeen;
    });
    EXPECT_EQ(totalBlocks, 5u); // 64 items = one block per run
}

TEST(MapperEngineTest, EmptyJobCompletes)
{
    MapperEngine engine(2, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    auto timing = engine.submit(0, [](WorkerContext &, u64, u64) {
        FAIL() << "no block should be dispatched for an empty job";
    });
    EXPECT_EQ(timing.itemsPerSec, 0.0);
}

TEST(MapperEngineTest, ZeroThreadsUsesHardwareConcurrency)
{
    MapperEngine engine(0, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    EXPECT_GE(engine.threads(), 1u);
}

TEST(MapperEngineTest, SlotIndexIsPassedToFactory)
{
    std::mutex mu;
    std::set<u32> slots;
    MapperEngine engine(4, [&](u32 slot) {
        std::lock_guard<std::mutex> lock(mu);
        slots.insert(slot);
        return std::make_unique<RecordingContext>();
    });
    EXPECT_EQ(slots, (std::set<u32>{ 0, 1, 2, 3 }));
}

class LongReadDriverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        simdata::GenomeParams gp;
        gp.length = 300000;
        gp.chromosomes = 1;
        gp.seed = 31;
        ref_ = simdata::generateGenome(gp);
        map_ = std::make_unique<genpair::SeedMap>(
            ref_, genpair::SeedMapParams{});

        simdata::DiploidGenome donor(ref_, simdata::VariantParams{});
        simdata::LongReadSimParams lp;
        simdata::LongReadSimulator sim(donor, lp);
        reads_ = sim.simulate(24);
    }

    genomics::Reference ref_;
    std::unique_ptr<genpair::SeedMap> map_;
    std::vector<genomics::Read> reads_;
};

TEST_F(LongReadDriverTest, ParallelMatchesSerialMapper)
{
    // The serial reference: one LongReadMapper, reads in order.
    baseline::Mm2Lite dp(ref_, baseline::Mm2LiteParams{});
    genpair::LongReadMapper serial(ref_, *map_, genpair::LongReadParams{},
                                   &dp);
    std::vector<genomics::Mapping> expected;
    expected.reserve(reads_.size());
    for (const auto &read : reads_)
        expected.push_back(serial.mapRead(read));

    genpair::LongReadDriver driver(ref_, *map_,
                                   genpair::LongReadParams{},
                                   baseline::Mm2LiteParams{}, 4);
    auto result = driver.mapAll(reads_);

    ASSERT_EQ(result.mappings.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].mapped, result.mappings[i].mapped) << i;
        EXPECT_EQ(expected[i].pos, result.mappings[i].pos) << i;
        EXPECT_EQ(expected[i].score, result.mappings[i].score) << i;
        EXPECT_EQ(expected[i].reverse, result.mappings[i].reverse) << i;
    }

    const auto &s = serial.stats();
    const auto &p = result.stats;
    EXPECT_EQ(s.readsTotal, p.readsTotal);
    EXPECT_EQ(s.mapped, p.mapped);
    EXPECT_EQ(s.unmapped, p.unmapped);
    EXPECT_EQ(s.pseudoPairs, p.pseudoPairs);
    EXPECT_EQ(s.votes, p.votes);
    EXPECT_EQ(s.query.seedLookups, p.query.seedLookups);
    EXPECT_EQ(s.query.locationsFetched, p.query.locationsFetched);
    EXPECT_EQ(s.query.filterIterations, p.query.filterIterations);
    EXPECT_GT(result.timing.itemsPerSec, 0.0);
}

TEST_F(LongReadDriverTest, RepeatedMapAllDoesNotAccumulateStats)
{
    genpair::LongReadDriver driver(ref_, *map_,
                                   genpair::LongReadParams{},
                                   baseline::Mm2LiteParams{}, 2);
    auto first = driver.mapAll(reads_);
    auto second = driver.mapAll(reads_);
    EXPECT_EQ(first.stats.readsTotal, reads_.size());
    EXPECT_EQ(second.stats.readsTotal, reads_.size());
    EXPECT_EQ(first.stats.mapped, second.stats.mapped);
    ASSERT_EQ(first.mappings.size(), second.mappings.size());
    for (std::size_t i = 0; i < first.mappings.size(); ++i)
        EXPECT_EQ(first.mappings[i].pos, second.mappings[i].pos) << i;
}

} // namespace
