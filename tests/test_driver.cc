/**
 * @file
 * Tests for the parallel mapping driver: identical results to a serial
 * run, correct aggregation, both engine configurations, and the same
 * mappings whatever block partition the engine chooses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "genpair/driver.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"
#include "test_gates.hh"

namespace {

using namespace gpx;
using genpair::DriverConfig;
using genpair::ParallelMapper;

class DriverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        simdata::GenomeParams gp;
        gp.length = 200000;
        gp.chromosomes = 1;
        gp.seed = 61;
        ref_ = simdata::generateGenome(gp);
        map_ = std::make_unique<genpair::SeedMap>(
            ref_, genpair::SeedMapParams{});
        simdata::DiploidGenome donor(ref_, simdata::VariantParams{});
        simdata::ReadSimulator sim(donor, simdata::ReadSimParams{});
        pairs_ = sim.simulate(300);
    }

    genomics::Reference ref_;
    std::unique_ptr<genpair::SeedMap> map_;
    std::vector<genomics::ReadPair> pairs_;
};

TEST_F(DriverTest, ParallelMatchesSerial)
{
    DriverConfig serialCfg;
    serialCfg.threads = 1;
    DriverConfig parallelCfg;
    parallelCfg.threads = 8;

    auto serial = ParallelMapper(ref_, *map_, serialCfg).mapAll(pairs_);
    auto parallel =
        ParallelMapper(ref_, *map_, parallelCfg).mapAll(pairs_);

    ASSERT_EQ(serial.mappings.size(), parallel.mappings.size());
    for (std::size_t i = 0; i < serial.mappings.size(); ++i) {
        EXPECT_EQ(serial.mappings[i].first.pos,
                  parallel.mappings[i].first.pos);
        EXPECT_EQ(serial.mappings[i].second.pos,
                  parallel.mappings[i].second.pos);
        EXPECT_EQ(serial.mappings[i].first.score,
                  parallel.mappings[i].first.score);
        EXPECT_EQ(serial.mappings[i].path, parallel.mappings[i].path);
    }
    EXPECT_EQ(serial.stats.lightAligned, parallel.stats.lightAligned);
    EXPECT_EQ(serial.stats.pairsTotal, parallel.stats.pairsTotal);
}

TEST_F(DriverTest, StatsFieldwiseParallelEqualsSerial)
{
    // The seed driver's hand-rolled stats merge silently dropped
    // gateRejected; comparing every field against a serial run (with a
    // gate installed so gateRejected is exercised) pins the full list.
    auto withGate = [](u32 threads) {
        DriverConfig cfg;
        cfg.threads = threads;
        cfg.gateFactory = [] {
            return std::make_unique<gpx::testing::OddPositionGate>();
        };
        return cfg;
    };
    auto serial =
        ParallelMapper(ref_, *map_, withGate(1)).mapAll(pairs_);
    auto parallel =
        ParallelMapper(ref_, *map_, withGate(8)).mapAll(pairs_);

    const auto &s = serial.stats;
    const auto &p = parallel.stats;
    EXPECT_GT(s.gateRejected, 0u);
    EXPECT_EQ(s.pairsTotal, p.pairsTotal);
    EXPECT_EQ(s.seedMissFallback, p.seedMissFallback);
    EXPECT_EQ(s.paFilterFallback, p.paFilterFallback);
    EXPECT_EQ(s.lightAlignFallback, p.lightAlignFallback);
    EXPECT_EQ(s.lightAligned, p.lightAligned);
    EXPECT_EQ(s.dpAligned, p.dpAligned);
    EXPECT_EQ(s.fullDpMapped, p.fullDpMapped);
    EXPECT_EQ(s.unmapped, p.unmapped);
    EXPECT_EQ(s.query.seedLookups, p.query.seedLookups);
    EXPECT_EQ(s.query.locationsFetched, p.query.locationsFetched);
    EXPECT_EQ(s.query.filterIterations, p.query.filterIterations);
    EXPECT_EQ(s.candidatePairs, p.candidatePairs);
    EXPECT_EQ(s.lightAlignsAttempted, p.lightAlignsAttempted);
    EXPECT_EQ(s.lightHypotheses, p.lightHypotheses);
    EXPECT_EQ(s.gateRejected, p.gateRejected);
}

TEST_F(DriverTest, PoolPersistsAcrossMapAllCalls)
{
    // Workers (and their engines) outlive one mapAll; a second call on
    // the same mapper must neither double-count stats nor change
    // results.
    DriverConfig cfg;
    cfg.threads = 4;
    ParallelMapper mapper(ref_, *map_, cfg);
    auto first = mapper.mapAll(pairs_);
    auto second = mapper.mapAll(pairs_);
    EXPECT_EQ(first.stats.pairsTotal, pairs_.size());
    EXPECT_EQ(second.stats.pairsTotal, pairs_.size());
    EXPECT_EQ(first.stats.lightAligned, second.stats.lightAligned);
    ASSERT_EQ(first.mappings.size(), second.mappings.size());
    for (std::size_t i = 0; i < first.mappings.size(); ++i) {
        EXPECT_EQ(first.mappings[i].first.pos,
                  second.mappings[i].first.pos);
        EXPECT_EQ(first.mappings[i].path, second.mappings[i].path);
    }
}

TEST_F(DriverTest, EmptyInputYieldsEmptyResult)
{
    DriverConfig cfg;
    cfg.threads = 4;
    ParallelMapper mapper(ref_, *map_, cfg);
    auto res = mapper.mapAll({});
    EXPECT_TRUE(res.mappings.empty());
    EXPECT_EQ(res.stats.pairsTotal, 0u);
}

TEST_F(DriverTest, StatsAggregateToInputSize)
{
    DriverConfig cfg;
    cfg.threads = 4;
    auto res = ParallelMapper(ref_, *map_, cfg).mapAll(pairs_);
    EXPECT_EQ(res.stats.pairsTotal, pairs_.size());
    EXPECT_GT(res.timing.itemsPerSec, 0.0);
    EXPECT_GT(res.timing.mbpsFor(150), 0.0);
}

TEST_F(DriverTest, PureMm2ConfigurationRuns)
{
    DriverConfig cfg;
    cfg.threads = 4;
    cfg.useGenPair = false; // MM2-lite end to end
    auto res = ParallelMapper(ref_, *map_, cfg).mapAll(pairs_);
    u32 mapped = 0;
    for (const auto &pm : res.mappings)
        mapped += pm.bothMapped();
    EXPECT_GT(mapped, pairs_.size() * 8 / 10);
    // The GenPair pipeline never ran.
    EXPECT_EQ(res.stats.lightAligned, 0u);
}

TEST_F(DriverTest, ZeroThreadsUsesHardwareConcurrency)
{
    DriverConfig cfg;
    cfg.threads = 0;
    ParallelMapper mapper(ref_, *map_, cfg);
    EXPECT_GE(mapper.threads(), 1u);
}

TEST_F(DriverTest, GenPairFasterThanPureMm2)
{
    // The paper's GenPair+MM2 vs MM2 speedup (1.72x) at software level;
    // assert directionally (>1.1x) to stay robust on busy CI hosts.
    DriverConfig gp;
    gp.threads = 4;
    DriverConfig mm2;
    mm2.threads = 4;
    mm2.useGenPair = false;
    // Warm both paths once to amortize first-touch effects.
    ParallelMapper(ref_, *map_, gp).mapAll(pairs_);
    auto a = ParallelMapper(ref_, *map_, gp).mapAll(pairs_);
    auto b = ParallelMapper(ref_, *map_, mm2).mapAll(pairs_);
    EXPECT_GT(a.timing.itemsPerSec, b.timing.itemsPerSec * 1.1);
}

/**
 * Every PipelineStats counter of two runs over the same input, except
 * the two that count batches and so depend on the block partition:
 * stages.*.batches and dpLaneGroups (a bigger batch fills more of each
 * DP sweep's lanes, so it needs fewer sweeps for the same tasks).
 */
void
expectSameWorkCounters(const genpair::PipelineStats &s,
                       const genpair::PipelineStats &p)
{
    EXPECT_EQ(s.pairsTotal, p.pairsTotal);
    EXPECT_EQ(s.seedMissFallback, p.seedMissFallback);
    EXPECT_EQ(s.paFilterFallback, p.paFilterFallback);
    EXPECT_EQ(s.lightAlignFallback, p.lightAlignFallback);
    EXPECT_EQ(s.lightAligned, p.lightAligned);
    EXPECT_EQ(s.dpAligned, p.dpAligned);
    EXPECT_EQ(s.fullDpMapped, p.fullDpMapped);
    EXPECT_EQ(s.unmapped, p.unmapped);
    EXPECT_EQ(s.query.seedLookups, p.query.seedLookups);
    EXPECT_EQ(s.query.locationsFetched, p.query.locationsFetched);
    EXPECT_EQ(s.query.filterIterations, p.query.filterIterations);
    EXPECT_EQ(s.candidatePairs, p.candidatePairs);
    EXPECT_EQ(s.lightAlignsAttempted, p.lightAlignsAttempted);
    EXPECT_EQ(s.lightHypotheses, p.lightHypotheses);
    EXPECT_EQ(s.gateRejected, p.gateRejected);
    EXPECT_EQ(s.dpLanesUsed, p.dpLanesUsed);
    EXPECT_EQ(s.ambiguousBases, p.ambiguousBases);
    for (u32 st = 0; st < genpair::kNumStages; ++st) {
        EXPECT_EQ(s.stage[st].itemsIn, p.stage[st].itemsIn) << st;
        EXPECT_EQ(s.stage[st].itemsOut, p.stage[st].itemsOut) << st;
    }
}

void
expectSameMapping(const genomics::Mapping &a, const genomics::Mapping &b)
{
    EXPECT_EQ(a.mapped, b.mapped);
    EXPECT_EQ(a.pos, b.pos);
    EXPECT_EQ(a.reverse, b.reverse);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.cigar, b.cigar);
}

TEST_F(DriverTest, BaselineBlocksMatchPerPair)
{
    // The MM2-lite baseline maps each worker block with one
    // Mm2Lite::mapPairsBatch() run: every pair must map as it does
    // alone, whatever block or thread count it lands in. (The golden
    // corpus pins the baseline's bytes under every SIMD backend.)
    DriverConfig cfg;
    cfg.useGenPair = false;
    cfg.fallbackIndex = std::make_shared<const baseline::MinimizerIndex>(
        ref_, cfg.fallback.minimizers);
    baseline::Mm2Lite solo(ref_, cfg.fallback, cfg.fallbackIndex);
    std::vector<genomics::PairMapping> want;
    for (const auto &pair : pairs_)
        want.push_back(solo.mapPair(pair));

    for (u32 threads : { 1u, 4u }) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        cfg.threads = threads;
        const auto got = ParallelMapper(ref_, *map_, cfg).mapAll(pairs_);
        ASSERT_EQ(got.mappings.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            SCOPED_TRACE("pair " + std::to_string(i));
            EXPECT_EQ(got.mappings[i].path, want[i].path);
            expectSameMapping(got.mappings[i].first, want[i].first);
            expectSameMapping(got.mappings[i].second, want[i].second);
        }
    }
}

TEST(DriverGrainTest, GuidedBlocksMapLikeSerial64PairBatches)
{
    // Big enough that the engine's guided grain claims blocks above
    // the 64-pair minimum at 1 and at 4 threads, at an error rate that
    // sends a large share of pairs through the batched DP fallback.
    simdata::GenomeParams gp;
    gp.length = 500000;
    gp.chromosomes = 1;
    gp.seed = 67;
    const genomics::Reference ref = simdata::generateGenome(gp);
    const genpair::SeedMap map(ref, genpair::SeedMapParams{});
    simdata::DiploidGenome donor(ref, simdata::VariantParams{});
    simdata::ReadSimParams rp;
    rp.errors = simdata::ErrorProfile::uniform(0.05);
    simdata::ReadSimulator sim(donor, rp);
    const std::vector<genomics::ReadPair> pairs = sim.simulate(4096);

    // One fallback index for the serial engine and both pools.
    DriverConfig base;
    base.fallbackIndex = std::make_shared<const baseline::MinimizerIndex>(
        ref, base.fallback.minimizers);
    baseline::Mm2Lite dp(ref, base.fallback, base.fallbackIndex);
    genpair::GenPairPipeline serial(ref, map, base.pipeline, &dp);
    std::vector<genomics::PairMapping> expected(pairs.size());
    constexpr u64 kSlice = genpair::MapperEngine::kDefaultBlockItems;
    for (u64 begin = 0; begin < pairs.size(); begin += kSlice)
        serial.mapBatch(pairs.data() + begin,
                        std::min<u64>(kSlice, pairs.size() - begin),
                        expected.data() + begin);
    const genpair::PipelineStats &s = serial.stats();
    ASSERT_GT(s.dpAligned + s.fullDpMapped, pairs.size() / 4);

    for (u32 threads : { 1u, 4u }) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        DriverConfig cfg = base;
        cfg.threads = threads;
        auto res = ParallelMapper(ref, map, cfg).mapAll(pairs);
        ASSERT_EQ(res.mappings.size(), pairs.size());
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            SCOPED_TRACE(::testing::Message() << "pair " << i);
            EXPECT_EQ(res.mappings[i].path, expected[i].path);
            expectSameMapping(res.mappings[i].first, expected[i].first);
            expectSameMapping(res.mappings[i].second,
                              expected[i].second);
        }
        expectSameWorkCounters(s, res.stats);
        // The run really took blocks above the 64-pair minimum...
        EXPECT_LT(res.stats.stageCounters(genpair::StageId::Seed).batches,
                  s.stageCounters(genpair::StageId::Seed).batches);
        // ...and packed the same DP tasks into no more sweeps.
        EXPECT_GT(res.stats.dpLanesUsed, 0u);
        EXPECT_LE(res.stats.dpLaneGroups, s.dpLaneGroups);
    }
}


/** Every mapping and every PipelineStats field of two runs. */
void
expectSameResult(const genpair::DriverResult &a,
                 const genpair::DriverResult &b)
{
    ASSERT_EQ(a.mappings.size(), b.mappings.size());
    for (std::size_t i = 0; i < a.mappings.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "pair " << i);
        EXPECT_EQ(a.mappings[i].path, b.mappings[i].path);
        expectSameMapping(a.mappings[i].first, b.mappings[i].first);
        expectSameMapping(a.mappings[i].second, b.mappings[i].second);
    }
    expectSameWorkCounters(a.stats, b.stats);
    EXPECT_EQ(a.stats.dpLaneGroups, b.stats.dpLaneGroups);
    EXPECT_EQ(a.stats.readerStallSeconds, b.stats.readerStallSeconds);
    EXPECT_EQ(a.stats.writerStallSeconds, b.stats.writerStallSeconds);
    for (u32 st = 0; st < genpair::kNumStages; ++st)
        EXPECT_EQ(a.stats.stage[st].batches, b.stats.stage[st].batches)
            << st;
}

TEST_F(DriverTest, ConcurrentMapAllCallsEachMatchASoloRun)
{
    // Serve handlers and borrowing StreamingMappers call mapAll() on
    // one mapper from many threads. Each call must own the pool and
    // its per-worker stats for its whole batch: two callers with
    // different inputs get exactly what each gets alone.
    DriverConfig cfg;
    cfg.threads = 4;
    cfg.gateFactory = [] {
        return std::make_unique<gpx::testing::OddPositionGate>();
    };
    ParallelMapper mapper(ref_, *map_, cfg);
    const std::vector<genomics::ReadPair> head(pairs_.begin(),
                                               pairs_.begin() + 100);
    const genpair::DriverResult soloAll = mapper.mapAll(pairs_);
    const genpair::DriverResult soloHead = mapper.mapAll(head);
    ASSERT_GT(soloAll.stats.gateRejected, 0u);

    for (int round = 0; round < 4; ++round) {
        SCOPED_TRACE(::testing::Message() << "round " << round);
        genpair::DriverResult all, part;
        std::thread a([&] { all = mapper.mapAll(pairs_); });
        std::thread b([&] { part = mapper.mapAll(head); });
        a.join();
        b.join();
        expectSameResult(soloAll, all);
        expectSameResult(soloHead, part);
    }
}

} // namespace
