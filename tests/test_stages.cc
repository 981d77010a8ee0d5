/**
 * @file
 * Stage-graph equivalence tests: the batched SoA engine must be
 * bit-identical to per-pair execution for any batch partition, with
 * statistics equal field by field, on inputs that exercise every
 * Fig. 10 fallback exit. Also pins the scratch-reusing branchless
 * banded DP against its reference counterpart.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "align/affine.hh"
#include "baseline/mm2lite.hh"
#include "genpair/pipeline.hh"
#include "genpair/stages.hh"
#include "oracles/oracles.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace {

using namespace gpx;

/** Random read of length n (not drawn from any reference). */
genomics::DnaSequence
randomSeq(util::Pcg32 &rng, std::size_t n)
{
    genomics::DnaSequence seq;
    for (std::size_t i = 0; i < n; ++i)
        seq.push(static_cast<u8>(rng.next() & 3));
    return seq;
}

/**
 * A pair set that takes every route: simulated proper pairs (light
 * fast path + light fallback), random junk (seed miss) and
 * far-apart segment pairs (PA-filter miss).
 */
class StageGraphTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        simdata::GenomeParams gp;
        gp.length = 150000;
        gp.chromosomes = 1;
        gp.seed = 77;
        ref_ = simdata::generateGenome(gp);
        // A sparse table (2^21 buckets for ~150k seeds) so the junk
        // reads below can actually miss every bucket — exit 1 needs
        // zero locations across all twelve seeds of a pair.
        genpair::SeedMapParams sp;
        sp.tableBits = 21;
        map_ = std::make_unique<genpair::SeedMap>(ref_, sp);
        mm2_ = std::make_unique<baseline::Mm2Lite>(
            ref_, baseline::Mm2LiteParams{});

        simdata::DiploidGenome donor(ref_, simdata::VariantParams{});
        simdata::ReadSimulator sim(donor, simdata::ReadSimParams{});
        pairs_ = sim.simulate(220);

        util::Pcg32 rng(1234);
        // Seed-miss pairs: reads unrelated to the reference.
        for (int i = 0; i < 12; ++i) {
            genomics::ReadPair junk;
            junk.first.name = "junk" + std::to_string(i);
            junk.first.seq = randomSeq(rng, 150);
            junk.second.name = junk.first.name;
            junk.second.seq = randomSeq(rng, 150);
            pairs_.push_back(std::move(junk));
        }
        // PA-miss pairs: both mates are real reference windows but far
        // apart, so candidates exist while no pair is within delta.
        for (int i = 0; i < 12; ++i) {
            u64 a = 1000 + static_cast<u64>(i) * 4000;
            u64 b = a + 60000;
            genomics::ReadPair far;
            far.first.name = "far" + std::to_string(i);
            far.first.seq =
                ref_.windowView(a, 150).materialize();
            far.second.name = far.first.name;
            far.second.seq =
                ref_.windowView(b, 150).materialize().revComp();
            pairs_.push_back(std::move(far));
        }
    }

    genpair::PipelineStats
    runBatched(u64 batch, std::vector<genomics::PairMapping> *out)
    {
        genpair::GenPairPipeline pipeline(ref_, *map_,
                                          genpair::GenPairParams{},
                                          mm2_.get());
        out->resize(pairs_.size());
        for (u64 begin = 0; begin < pairs_.size(); begin += batch) {
            u64 end = std::min<u64>(pairs_.size(), begin + batch);
            pipeline.mapBatch(pairs_.data() + begin, end - begin,
                              out->data() + begin);
        }
        return pipeline.stats();
    }

    static void
    expectStatsEqual(const genpair::PipelineStats &a,
                     const genpair::PipelineStats &b)
    {
        EXPECT_EQ(a.pairsTotal, b.pairsTotal);
        EXPECT_EQ(a.seedMissFallback, b.seedMissFallback);
        EXPECT_EQ(a.paFilterFallback, b.paFilterFallback);
        EXPECT_EQ(a.lightAlignFallback, b.lightAlignFallback);
        EXPECT_EQ(a.lightAligned, b.lightAligned);
        EXPECT_EQ(a.dpAligned, b.dpAligned);
        EXPECT_EQ(a.fullDpMapped, b.fullDpMapped);
        EXPECT_EQ(a.unmapped, b.unmapped);
        EXPECT_EQ(a.query.seedLookups, b.query.seedLookups);
        EXPECT_EQ(a.query.locationsFetched, b.query.locationsFetched);
        EXPECT_EQ(a.query.filterIterations, b.query.filterIterations);
        EXPECT_EQ(a.candidatePairs, b.candidatePairs);
        EXPECT_EQ(a.lightAlignsAttempted, b.lightAlignsAttempted);
        EXPECT_EQ(a.lightHypotheses, b.lightHypotheses);
        EXPECT_EQ(a.gateRejected, b.gateRejected);
        EXPECT_EQ(a.dpLanesUsed, b.dpLanesUsed);
        // Per-stage item counters are partition-invariant; only the
        // batch counts (and the DP sweeps, dpLaneGroups) depend on how
        // the input was chopped.
        for (u32 s = 0; s < genpair::kNumStages; ++s) {
            EXPECT_EQ(a.stage[s].itemsIn, b.stage[s].itemsIn) << s;
            EXPECT_EQ(a.stage[s].itemsOut, b.stage[s].itemsOut) << s;
        }
    }

    static void
    expectMappingsEqual(const std::vector<genomics::PairMapping> &a,
                        const std::vector<genomics::PairMapping> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].path, b[i].path) << i;
            EXPECT_EQ(a[i].first.pos, b[i].first.pos) << i;
            EXPECT_EQ(a[i].second.pos, b[i].second.pos) << i;
            EXPECT_EQ(a[i].first.score, b[i].first.score) << i;
            EXPECT_EQ(a[i].second.score, b[i].second.score) << i;
            EXPECT_EQ(a[i].first.cigar.toString(),
                      b[i].first.cigar.toString())
                << i;
        }
    }

    genomics::Reference ref_;
    std::unique_ptr<genpair::SeedMap> map_;
    std::unique_ptr<baseline::Mm2Lite> mm2_;
    std::vector<genomics::ReadPair> pairs_;
};

TEST_F(StageGraphTest, EveryFallbackExitIsExercised)
{
    std::vector<genomics::PairMapping> out;
    auto stats = runBatched(pairs_.size(), &out);
    EXPECT_GT(stats.lightAligned, 0u);
    EXPECT_GT(stats.lightAlignFallback, 0u);
    EXPECT_GT(stats.seedMissFallback, 0u);
    EXPECT_GT(stats.paFilterFallback, 0u);
    EXPECT_EQ(stats.pairsTotal, pairs_.size());
}

TEST_F(StageGraphTest, BatchPartitionInvariance)
{
    // mapPair() (batch of one) and every other partition must produce
    // identical mappings and identical stats, field by field.
    std::vector<genomics::PairMapping> perPair;
    auto perPairStats = runBatched(1, &perPair);

    for (u64 batch : { u64{ 7 }, u64{ 64 }, pairs_.size() }) {
        std::vector<genomics::PairMapping> batched;
        auto batchedStats = runBatched(batch, &batched);
        expectMappingsEqual(perPair, batched);
        expectStatsEqual(perPairStats, batchedStats);
    }
}

TEST_F(StageGraphTest, MapPairWrapperMatchesBatch)
{
    genpair::GenPairPipeline a(ref_, *map_, genpair::GenPairParams{},
                               mm2_.get());
    genpair::GenPairPipeline b(ref_, *map_, genpair::GenPairParams{},
                               mm2_.get());
    std::vector<genomics::PairMapping> viaWrapper(pairs_.size());
    for (std::size_t i = 0; i < pairs_.size(); ++i)
        viaWrapper[i] = a.mapPair(pairs_[i]);
    std::vector<genomics::PairMapping> viaBatch(pairs_.size());
    b.mapBatch(pairs_.data(), pairs_.size(), viaBatch.data());
    expectMappingsEqual(viaWrapper, viaBatch);
    expectStatsEqual(a.stats(), b.stats());
}

TEST_F(StageGraphTest, StageCountersAreConsistent)
{
    std::vector<genomics::PairMapping> out;
    auto st = runBatched(64, &out);
    using genpair::StageId;
    const auto &seed = st.stageCounters(StageId::Seed);
    const auto &query = st.stageCounters(StageId::Query);
    const auto &pa = st.stageCounters(StageId::PaFilter);
    const auto &light = st.stageCounters(StageId::LightAlign);
    const auto &fb = st.stageCounters(StageId::Fallback);

    EXPECT_EQ(seed.itemsIn, pairs_.size());
    EXPECT_EQ(seed.itemsOut, pairs_.size());
    EXPECT_EQ(query.itemsIn, pairs_.size());
    EXPECT_EQ(query.itemsOut, pairs_.size() - st.seedMissFallback);
    EXPECT_EQ(pa.itemsOut,
              query.itemsOut - st.paFilterFallback);
    EXPECT_EQ(light.itemsIn, pa.itemsOut);
    EXPECT_EQ(light.itemsOut, st.lightAligned);
    EXPECT_EQ(fb.itemsIn, pairs_.size() - st.lightAligned);
    EXPECT_EQ(seed.batches, query.batches);
}

TEST_F(StageGraphTest, DpLaneFillCountsTheFallbackSweeps)
{
    std::vector<genomics::PairMapping> out;
    const auto perPair = runBatched(1, &out);
    const auto whole = runBatched(pairs_.size(), &out);
    const u64 lanes = util::simdDpLanes(util::activeSimdBackend());

    // Every DP task takes one lane whatever the partition; a bigger
    // batch packs them into no more sweeps, each at most full.
    EXPECT_GT(perPair.dpLanesUsed, 0u);
    EXPECT_EQ(perPair.dpLanesUsed, whole.dpLanesUsed);
    EXPECT_LE(whole.dpLaneGroups, perPair.dpLaneGroups);
    EXPECT_LE(perPair.dpLaneGroups, perPair.dpLanesUsed);
    EXPECT_LE(whole.dpLanesUsed, whole.dpLaneGroups * lanes);
    EXPECT_GE(whole.dpLanesUsed, whole.dpLaneGroups);

    // --stats-json carries both in the fallback stage's block.
    std::ostringstream js;
    whole.writeJson(js);
    std::string fallbackLine;
    std::istringstream lines(js.str());
    for (std::string line; std::getline(lines, line);)
        if (line.find("\"fallback\"") != std::string::npos)
            fallbackLine = line;
    EXPECT_NE(fallbackLine.find("\"dp_lane_groups\": " +
                                std::to_string(whole.dpLaneGroups)),
              std::string::npos)
        << fallbackLine;
    EXPECT_NE(fallbackLine.find("\"dp_lanes_used\": " +
                                std::to_string(whole.dpLanesUsed)),
              std::string::npos)
        << fallbackLine;
}

TEST_F(StageGraphTest, TraceRecordsMatchRouting)
{
    genpair::GenPairPipeline pipeline(ref_, *map_,
                                      genpair::GenPairParams{},
                                      mm2_.get());
    std::vector<genomics::PairMapping> out(pairs_.size());
    std::vector<genpair::PairTraceRecord> trace(pairs_.size());
    pipeline.mapBatch(pairs_.data(), pairs_.size(), out.data(),
                      trace.data());
    const auto &st = pipeline.stats();
    u64 light = 0, lightFb = 0, seedMiss = 0, paMiss = 0;
    for (const auto &tr : trace) {
        switch (tr.route) {
        case genpair::PairRoute::LightAligned: ++light; break;
        case genpair::PairRoute::LightFallback: ++lightFb; break;
        case genpair::PairRoute::SeedMiss: ++seedMiss; break;
        case genpair::PairRoute::PaMiss: ++paMiss; break;
        default: FAIL() << "unrouted trace record";
        }
    }
    EXPECT_EQ(light, st.lightAligned);
    EXPECT_EQ(lightFb, st.lightAlignFallback);
    EXPECT_EQ(seedMiss, st.seedMissFallback);
    EXPECT_EQ(paMiss, st.paFilterFallback);

    u64 filterIters = 0, lightAligns = 0;
    for (const auto &tr : trace) {
        filterIters += tr.filterIterations;
        lightAligns += tr.lightAligns;
    }
    EXPECT_EQ(filterIters, st.query.filterIterations);
    EXPECT_EQ(lightAligns, st.lightAlignsAttempted);

    // Tracing must not change the mapping.
    std::vector<genomics::PairMapping> plain;
    runBatched(pairs_.size(), &plain);
    expectMappingsEqual(plain, out);
}

TEST(AffineOracleTest, BranchlessEngineMatchesReference)
{
    util::Pcg32 rng(7);
    align::AlignScratch scratch; // reused across every size mix
    for (int iter = 0; iter < 400; ++iter) {
        std::size_t qlen = 1 + rng.next() % 180;
        std::size_t tlen = 1 + rng.next() % 260;
        genomics::DnaSequence q = randomSeq(rng, qlen);
        genomics::DnaSequence t;
        if (rng.next() & 1) {
            // Related operands: t is a mutated copy of q plus flanks.
            t = randomSeq(rng, rng.next() % 40);
            t.append(q);
            for (int e = 0; e < static_cast<int>(rng.next() % 6); ++e)
                t.set(rng.next() % t.size(),
                      static_cast<u8>(rng.next() & 3));
        } else {
            t = randomSeq(rng, tlen);
        }
        i32 band = -1;
        if (rng.next() % 3 == 0)
            band = static_cast<i32>(rng.next() % 64);
        auto sc = genomics::ScoringScheme::shortRead();

        auto ref = align::fitAlignRef(q, t, sc, band);
        auto opt = align::fitAlign(q, t, sc, band, scratch);
        ASSERT_EQ(ref.valid, opt.valid) << "iter " << iter;
        ASSERT_EQ(ref.cellUpdates, opt.cellUpdates) << "iter " << iter;
        if (!ref.valid)
            continue;
        ASSERT_EQ(ref.score, opt.score) << "iter " << iter;
        ASSERT_EQ(ref.targetStart, opt.targetStart) << "iter " << iter;
        ASSERT_EQ(ref.targetEnd, opt.targetEnd) << "iter " << iter;
        ASSERT_EQ(ref.cigar.toString(), opt.cigar.toString())
            << "iter " << iter;
    }
}

} // namespace
