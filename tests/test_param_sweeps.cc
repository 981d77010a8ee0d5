/**
 * @file
 * Parameterized generality sweeps: the pipeline is specified for 150 bp
 * GIAB-style reads, but a production mapper must behave across read
 * lengths, seed lengths and adjacency thresholds. These suites pin the
 * invariants that must hold at every design point.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "baseline/mm2lite.hh"
#include "genpair/light_align.hh"
#include "genpair/pipeline.hh"
#include "hwsim/dram.hh"
#include "hwsim/nmsl.hh"
#include "simdata/genome_generator.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using genomics::DnaSequence;
using genomics::Reference;

Reference
sharedRef()
{
    simdata::GenomeParams gp;
    gp.length = 300000;
    gp.chromosomes = 1;
    gp.seed = 91;
    return simdata::generateGenome(gp);
}

/** Light alignment across read lengths: threshold scales, CIGAR spans. */
class LightAlignLengths : public ::testing::TestWithParam<u32>
{
};

TEST_P(LightAlignLengths, ExactAndEditedReadsAlign)
{
    const u32 len = GetParam();
    Reference ref = sharedRef();
    genpair::LightAlignParams params;
    genpair::LightAligner aligner(ref, params);
    const auto scoring = params.scoring;

    // Exact read.
    DnaSequence read = ref.window(5000, len);
    auto r = aligner.align(read, 5000);
    ASSERT_TRUE(r.aligned) << "len " << len;
    EXPECT_EQ(r.score, scoring.perfectScore(len));
    EXPECT_EQ(r.cigar().querySpan(), len);

    // One mismatch: still above the scaled threshold for len >= 100.
    read.set(len / 2, (read.at(len / 2) + 1) & 3u);
    auto rm = aligner.align(read, 5000);
    ASSERT_TRUE(rm.aligned) << "len " << len;
    EXPECT_EQ(rm.score, scoring.perfectScore(len) - 10);

    // One deletion of 2 at mid-read.
    DnaSequence del = ref.window(5000, len / 2);
    del.append(ref.windowView(5000 + len / 2 + 2, len - len / 2));
    auto rd = aligner.align(del, 5000);
    ASSERT_TRUE(rd.aligned) << "len " << len;
    EXPECT_EQ(rd.cigar().deletedBases(), 2u);
    EXPECT_EQ(rd.cigar().refSpan(), len + 2u);
}

INSTANTIATE_TEST_SUITE_P(ReadLengths, LightAlignLengths,
                         ::testing::Values(100u, 150u, 200u, 250u));

/** SeedMap across seed lengths. */
class SeedLengths : public ::testing::TestWithParam<u32>
{
};

TEST_P(SeedLengths, IndexAndSeederConsistent)
{
    const u32 seedLen = GetParam();
    Reference ref = sharedRef();
    genpair::SeedMapParams sp;
    sp.seedLen = seedLen;
    sp.tableBits = 19;
    genpair::SeedMap map(ref, sp);
    genpair::PartitionedSeeder seeder(map);

    DnaSequence read = ref.chromosome(0).sub(7000, 3 * seedLen);
    auto seeds = seeder.extract(read);
    EXPECT_EQ(seeds[0].offsetInRead, 0u);
    EXPECT_EQ(seeds[2].offsetInRead, 2 * seedLen);
    for (const auto &s : seeds) {
        auto span = map.lookup(s.hash);
        u32 want = static_cast<u32>(7000 + s.offsetInRead);
        EXPECT_NE(std::find(span.begin(), span.end(), want), span.end())
            << "seedLen " << seedLen;
    }
}

INSTANTIATE_TEST_SUITE_P(SeedLens, SeedLengths,
                         ::testing::Values(25u, 32u, 50u, 64u));

/** Pipeline across adjacency thresholds. */
class DeltaSweep : public ::testing::TestWithParam<u32>
{
};

TEST_P(DeltaSweep, InsertWithinDeltaMapsOnFastPath)
{
    const u32 delta = GetParam();
    Reference ref = sharedRef();
    genpair::SeedMapParams sp;
    sp.tableBits = 20;
    genpair::SeedMap map(ref, sp);
    genpair::GenPairParams params;
    params.delta = delta;
    genpair::GenPairPipeline pipe(ref, map, params, nullptr);

    // Insert chosen to sit just inside delta (start distance
    // = insert - 150 = delta - 50).
    u64 insert = delta + 100;
    genomics::ReadPair pair;
    pair.first.seq = ref.chromosome(0).sub(40000, 150);
    pair.second.seq =
        ref.chromosome(0).sub(40000 + insert - 150, 150).revComp();
    auto pm = pipe.mapPair(pair);
    EXPECT_EQ(pm.path, genomics::MappingPath::LightAligned)
        << "delta " << delta;

    // And just outside: distance = delta + 50.
    genpair::GenPairPipeline pipe2(ref, map, params, nullptr);
    u64 farInsert = delta + 200;
    genomics::ReadPair far;
    far.first.seq = ref.chromosome(0).sub(60000, 150);
    far.second.seq =
        ref.chromosome(0).sub(60000 + farInsert - 150, 150).revComp();
    auto pm2 = pipe2.mapPair(far);
    EXPECT_NE(pm2.path, genomics::MappingPath::LightAligned)
        << "delta " << delta;
    EXPECT_GE(pipe2.stats().paFilterFallback, 1u);
}

INSTANTIATE_TEST_SUITE_P(Deltas, DeltaSweep,
                         ::testing::Values(200u, 300u, 500u, 800u));

/** Scoring threshold scaling across read lengths. */
TEST(LightAlignParamsTest, MinScoreScalesWithLength)
{
    genpair::LightAlignParams p;
    EXPECT_EQ(p.minScoreFor(150), 276);
    EXPECT_EQ(p.minScoreFor(100), 184); // 276/300 x 200
    EXPECT_LT(p.minScoreFor(100), p.minScoreFor(250));
}

/** Light alignment must reject candidates pointing nowhere close. */
class WrongCandidateRejection : public ::testing::TestWithParam<int>
{
};

TEST_P(WrongCandidateRejection, RandomCandidateDoesNotAlign)
{
    Reference ref = sharedRef();
    genpair::LightAligner aligner(ref, genpair::LightAlignParams{});
    util::Pcg32 rng(GetParam() * 7 + 3);
    DnaSequence read = ref.window(1000 + rng.below(100000), 150);
    GlobalPos wrong = 150000 + rng.below(100000);
    auto r = aligner.align(read, wrong);
    // A random far-away window must not pass the 276 gate (collision
    // odds at 150 bp are astronomically small).
    EXPECT_FALSE(r.aligned);
}

INSTANTIATE_TEST_SUITE_P(Random, WrongCandidateRejection,
                         ::testing::Range(0, 8));


// ---------------------------------------------------------------------
// DRAM channel invariants under randomized request streams
// ---------------------------------------------------------------------

class DramRandomTraffic
    : public ::testing::TestWithParam<std::tuple<const char *, u64>>
{
  protected:
    hwsim::MemoryConfig
    config() const
    {
        std::string name = std::get<0>(GetParam());
        if (name == "hbm2")
            return hwsim::MemoryConfig::hbm2();
        if (name == "ddr5")
            return hwsim::MemoryConfig::ddr5();
        return hwsim::MemoryConfig::gddr6();
    }
};

TEST_P(DramRandomTraffic, ConservationAndTimingInvariants)
{
    const auto cfg = config();
    hwsim::DramChannel chan(cfg, 16);
    util::Pcg32 rng(std::get<1>(GetParam()));

    const u32 total = 400;
    u64 pushed = 0, bytesPushed = 0;
    u64 drained = 0;
    u64 cycle = 0;
    u64 lastFinish = 0;
    while (drained < total) {
        if (pushed < total && chan.canAccept()) {
            hwsim::MemRequest req;
            req.addr = static_cast<u64>(rng.next()) << 6;
            req.bytes = 4 + rng.below(120);
            req.tag = pushed;
            chan.push(req);
            bytesPushed += req.bytes;
            ++pushed;
        }
        chan.tick(cycle);
        for (const auto &resp : chan.drain(cycle)) {
            // Responses never finish in the future.
            EXPECT_LE(resp.finishCycle, cycle);
            lastFinish = std::max(lastFinish, resp.finishCycle);
            ++drained;
        }
        ++cycle;
        ASSERT_LT(cycle, u64{10} << 20) << "channel wedged";
    }

    const auto &st = chan.stats();
    EXPECT_EQ(st.requests, total);
    // Bursts round bytes up to the burst size, never down.
    EXPECT_GE(st.bytesRead, bytesPushed);
    EXPECT_EQ(chan.inFlight(), 0u);
    // Row hits can never exceed column accesses, and every burst
    // occupies the bus for tBL cycles.
    EXPECT_LE(st.rowHits, st.bursts);
    EXPECT_EQ(st.busBusyCycles, st.bursts * cfg.tBL);
    EXPECT_GT(st.dynamicEnergyNj(cfg), 0.0);
    // A single channel cannot beat its own peak bandwidth.
    double gbps = static_cast<double>(st.bytesRead) /
                  (static_cast<double>(lastFinish) / cfg.clockGhz);
    EXPECT_LE(gbps, cfg.peakChannelGBps() * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DramRandomTraffic,
    ::testing::Combine(::testing::Values("hbm2", "ddr5", "gddr6"),
                       ::testing::Values(u64{1}, u64{2}, u64{3})),
    [](const auto &test_info) {
        return std::string(std::get<0>(test_info.param)) + "_seed" +
               std::to_string(std::get<1>(test_info.param));
    });

// ---------------------------------------------------------------------
// Sequential vs random access: row-buffer locality must pay off
// ---------------------------------------------------------------------

TEST(DramRandomTraffic, SequentialBeatsRandom)
{
    const auto cfg = hwsim::MemoryConfig::hbm2();
    auto runTrace = [&](bool sequential) {
        hwsim::DramChannel chan(cfg, 16);
        util::Pcg32 rng(7);
        const u32 total = 300;
        u64 pushed = 0, drained = 0, cycle = 0;
        while (drained < total) {
            if (pushed < total && chan.canAccept()) {
                hwsim::MemRequest req;
                req.addr = sequential
                               ? pushed * 64
                               : static_cast<u64>(rng.next()) << 8;
                req.bytes = 64;
                req.tag = pushed;
                chan.push(req);
                ++pushed;
            }
            chan.tick(cycle);
            drained += chan.drain(cycle).size();
            ++cycle;
        }
        return std::pair<u64, u64>(cycle, chan.stats().rowHits);
    };
    auto [seqCycles, seqHits] = runTrace(true);
    auto [rndCycles, rndHits] = runTrace(false);
    EXPECT_GT(seqHits, rndHits);
    EXPECT_LT(seqCycles, rndCycles);
}


// ---------------------------------------------------------------------
// NMSL liveness: skewed traces retire under every window size
// ---------------------------------------------------------------------

class NmslLiveness
    : public ::testing::TestWithParam<std::tuple<u32, const char *>>
{
  protected:
    /** Synthesize an adversarial trace of the requested shape. */
    std::vector<hwsim::PairTrace>
    trace(const std::string &shape, util::Pcg32 &rng) const
    {
        std::vector<hwsim::PairTrace> t(256);
        for (std::size_t p = 0; p < t.size(); ++p) {
            for (auto &seed : t[p]) {
                if (shape == "hot-channel") {
                    // All seeds hash to the same channel residue, the
                    // worst case for the per-channel FIFOs.
                    seed.hash = 32 * static_cast<u32>(p);
                    seed.locCount = 4;
                } else if (shape == "heavy-tail") {
                    // One straggler seed per pair with a near-threshold
                    // location list; the rest are singletons.
                    seed.hash = rng.next();
                    seed.locCount = 1;
                } else { // uniform
                    seed.hash = rng.next();
                    seed.locCount = 1 + rng.below(8);
                }
                seed.locOffset = rng.next() >> 8;
            }
            if (shape == "heavy-tail")
                t[p][p % 6].locCount = 490; // just under the 500 cap
        }
        return t;
    }
};

TEST_P(NmslLiveness, AllPairsRetireUnderEveryWindow)
{
    const u32 window = std::get<0>(GetParam());
    util::Pcg32 rng(99);
    auto workload = trace(std::get<1>(GetParam()), rng);

    hwsim::NmslConfig cfg;
    cfg.windowSize = window;
    auto result = hwsim::NmslSim(cfg).run(workload);

    // Liveness: every pair retires; the deadlock the paper's sliding
    // window + centralized buffer prevent (SS5.2) must not occur for
    // any window size or traffic shape.
    EXPECT_EQ(result.pairs, workload.size());
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.mpairsPerSec, 0.0);
    // The centralized buffer never needs more than threshold-depth
    // FIFOs (the paper's sizing rule).
    EXPECT_LE(result.maxChannelFifoDepth,
              u64{cfg.channelFifoDepth} * cfg.mem.channels);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NmslLiveness,
    ::testing::Combine(::testing::Values(1u, 4u, 64u, 1024u),
                       ::testing::Values("uniform", "hot-channel",
                                         "heavy-tail")),
    [](const auto &test_info) {
        std::string name = std::get<1>(test_info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name + "_w" + std::to_string(std::get<0>(test_info.param));
    });

} // namespace
