/**
 * @file
 * Google-benchmark microbenchmarks of the software kernels backing the
 * hardware models: xxHash seeding, SeedMap lookup and query merge, the
 * SHD mask kernel, light alignment and the DP fallback aligner. These
 * provide the software-side MCUPS/throughput numbers quoted in
 * EXPERIMENTS.md.
 *
 * The *Scalar / *Legacy rows are the pre-word-parallel implementations
 * (the test oracles of tests/oracles) so one run reports the
 * before/after of every bit-parallel kernel. The checked-in baseline
 * BENCH_micro_kernels.json is produced with `--benchmark_format=json`;
 * scripts/check_kernel_regression.py gates CI against it.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "align/affine.hh"
#include "align/shd.hh"
#include "align/wfa.hh"
#include "baseline/minimizer_index.hh"
#include "filters/edit_distance.hh"
#include "filters/grim_filter.hh"
#include "filters/sneakysnake.hh"
#include "genomics/sam.hh"
#include "genpair/light_align.hh"
#include "genpair/pafilter.hh"
#include "genpair/seeder.hh"
#include "genpair/seedmap.hh"
#include "oracles/oracles.hh"
#include "simdata/genome_generator.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/xxhash.hh"

namespace {

using namespace gpx;

genomics::Reference &
sharedRef()
{
    static genomics::Reference ref = [] {
        simdata::GenomeParams gp;
        gp.length = 1 << 20;
        gp.chromosomes = 1;
        gp.seed = 7;
        return simdata::generateGenome(gp);
    }();
    return ref;
}

genpair::SeedMap &
sharedMap()
{
    static genpair::SeedMap map(sharedRef(), genpair::SeedMapParams{});
    return map;
}

void
BM_Xxh32Seed(benchmark::State &state)
{
    auto seed = sharedRef().chromosome(0).sub(1000, 50);
    const auto &packed = seed.packed();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            util::xxh32(packed.data(), packed.size()));
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_Xxh32Seed);

void
BM_PartitionedSeeding(benchmark::State &state)
{
    genpair::PartitionedSeeder seeder(sharedMap());
    auto read = sharedRef().chromosome(0).sub(5000, 150);
    for (auto _ : state)
        benchmark::DoNotOptimize(seeder.extract(read));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_PartitionedSeeding);

void
BM_SeedMapLookup(benchmark::State &state)
{
    auto &map = sharedMap();
    util::Pcg32 rng(3);
    std::vector<u32> hashes;
    for (int i = 0; i < 1024; ++i) {
        auto seed = sharedRef().chromosome(0).sub(rng.below(900000), 50);
        hashes.push_back(map.hashSeed(seed));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        auto span = map.lookup(hashes[i++ & 1023]);
        benchmark::DoNotOptimize(span.data());
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_SeedMapLookup);

/**
 * The SeedMap query of one read: three seed lookups whose pre-sorted
 * location lists are merged into deduplicated candidate read starts
 * (genpair::queryCandidatesInto into a reused vector). items_per_second
 * counts reads.
 */
void
BM_QueryCandidates(benchmark::State &state)
{
    const genpair::SeedMapView map = sharedMap().view();
    genpair::PartitionedSeeder seeder(map);
    util::Pcg32 rng(5);
    std::vector<genpair::ReadSeeds> seeds;
    for (int i = 0; i < 1024; ++i) {
        auto read = sharedRef().chromosome(0).sub(rng.below(900000), 150);
        seeds.push_back(seeder.extract(read));
    }
    std::vector<GlobalPos> candidates;
    genpair::QueryWork work;
    std::size_t i = 0;
    for (auto _ : state) {
        candidates.clear();
        genpair::queryCandidatesInto(map, seeds[i++ & 1023], work,
                                     candidates);
        benchmark::DoNotOptimize(candidates.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_QueryCandidates);

void
BM_ShdMasks(benchmark::State &state)
{
    auto read = sharedRef().chromosome(0).sub(10000, 150);
    auto window = sharedRef().chromosome(0).sub(9995, 160);
    for (auto _ : state)
        benchmark::DoNotOptimize(align::shiftedMasks(read, window, 5, 5));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_ShdMasks);

/**
 * SIMD-across-batch counterpart of BM_ShdMasks: the 2e+1 masks of one
 * read against 8 candidate windows per run (align::ShdBatch), one row
 * per backend the host supports. items_per_second counts candidate
 * windows, so the speedup over BM_ShdMasks reads off directly.
 */
void
ShdMasksBatch8(benchmark::State &state, util::SimdBackend backend)
{
    const util::SimdBackend prev = util::activeSimdBackend();
    util::forceSimdBackend(backend);
    auto read = sharedRef().chromosome(0).sub(10000, 150);
    align::BitPlanes readPlanes(read);
    constexpr u32 kLanes = 8;
    std::vector<genomics::DnaSequence> windows;
    std::vector<align::BitPlanes> windowPlanes(kLanes);
    for (u32 l = 0; l < kLanes; ++l) {
        windows.push_back(
            sharedRef().chromosome(0).sub(9995 + 400 * l, 160));
        windowPlanes[l].assign(windows.back());
    }
    align::ShdBatch batch;
    const u32 chunk = util::simdMaskLanes(backend);
    for (auto _ : state) {
        // Production chunking (ShdFilter::evaluateBatch): lane groups
        // of the backend's width until the 8 candidates are consumed.
        for (u32 i = 0; i < kLanes; i += chunk) {
            const u32 lanes = std::min(chunk, kLanes - i);
            batch.begin(lanes, 150, 5, 5);
            for (u32 l = 0; l < lanes; ++l)
                batch.setLane(l, readPlanes, windowPlanes[i + l]);
            batch.run();
            benchmark::DoNotOptimize(batch.maskWords.data());
            benchmark::DoNotOptimize(batch.popcount.data());
        }
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kLanes);
    util::forceSimdBackend(prev);
}

/**
 * Register one batch row per supported backend and surface the
 * dispatch provenance in the JSON context block. ISA-dependent rows
 * ("/avx*") are optional in check_kernel_regression.py, so a baseline
 * recorded on a wider host still gates on narrower CI runners.
 */
const bool registeredShdBatch = [] {
    benchmark::AddCustomContext(
        "simd_backend",
        util::simdBackendName(util::activeSimdBackend()));
    benchmark::AddCustomContext("simd_reason", util::simdBackendReason());
    for (util::SimdBackend b :
         { util::SimdBackend::Scalar, util::SimdBackend::Avx2,
           util::SimdBackend::Avx512 }) {
        if (b > util::maxSimdBackend())
            continue;
        std::string name =
            std::string("BM_ShdMasksBatch8/") + util::simdBackendName(b);
        benchmark::RegisterBenchmark(name.c_str(), ShdMasksBatch8, b);
    }
    return true;
}();

/**
 * The light-align stage's kernel: LightAligner::alignBatch() over a
 * warm LightBatchScratch, as LightAlignStage runs it. Each iteration
 * aligns 8 candidates of 150 bp reads with one mismatch: one full lane
 * group under AVX-512, two under AVX2, eight one-lane groups under
 * scalar. items_per_second counts candidates.
 */
void
BM_LightAlign(benchmark::State &state)
{
    genpair::LightAligner aligner(sharedRef(),
                                  genpair::LightAlignParams{});
    constexpr u32 kLanes = 8;
    std::vector<align::BitPlanes> planes(kLanes);
    std::vector<genpair::LightBatchItem> items(kLanes);
    for (u32 l = 0; l < kLanes; ++l) {
        const GlobalPos pos = 20000 + 400 * l;
        auto read = sharedRef().chromosome(0).sub(pos, 150);
        read.set(70, (read.at(70) + 1) & 3u);
        planes[l].assign(read);
        items[l] = { &planes[l], pos };
    }
    genpair::LightBatchScratch scratch;
    std::vector<genpair::LightResult> out(kLanes);
    for (auto _ : state) {
        aligner.alignBatch(items.data(), kLanes, scratch, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kLanes);
}
BENCHMARK(BM_LightAlign);

void
BM_DpFitAlign(benchmark::State &state)
{
    auto read = sharedRef().chromosome(0).sub(30000, 150);
    auto window = sharedRef().chromosome(0).sub(29976, 198);
    auto scheme = genomics::ScoringScheme::shortRead();
    u64 cells = 0;
    for (auto _ : state) {
        auto r = align::fitAlign(read, window, scheme);
        cells += r.cellUpdates;
        benchmark::DoNotOptimize(r.score);
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
    state.counters["cells/s"] = benchmark::Counter(
        static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DpFitAlign);


void
BM_WfaGlobalAlign(benchmark::State &state)
{
    // The WFA fallback-substrate kernel on a lightly edited read (the
    // common fallback case): work is penalty-proportional.
    auto read = sharedRef().chromosome(0).sub(40000, 150);
    read.set(40, (read.at(40) + 1) & 3u);
    read.set(90, (read.at(90) + 1) & 3u);
    auto window = sharedRef().chromosome(0).sub(40000, 158);
    u64 ops = 0;
    for (auto _ : state) {
        auto r = align::wfaGlobalAlign(read, window);
        ops += r.wavefrontOps;
        benchmark::DoNotOptimize(r.penalty);
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
    state.counters["wf-ops/s"] = benchmark::Counter(
        static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WfaGlobalAlign);

void
BM_SneakySnakeGate(benchmark::State &state)
{
    // The SS8 pre-alignment gate on a passing candidate.
    filters::SneakySnakeFilter gate;
    auto read = sharedRef().chromosome(0).sub(50000, 150);
    read.set(75, (read.at(75) + 1) & 3u);
    auto window = sharedRef().chromosome(0).sub(49995, 160);
    for (auto _ : state)
        benchmark::DoNotOptimize(gate.evaluate(read, window, 5, 5));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_SneakySnakeGate);

void
BM_GrimFilterQuery(benchmark::State &state)
{
    // GRIM bin-bitvector membership test (no reference bases touched).
    static filters::GrimFilter grim(sharedRef(), filters::GrimParams{});
    auto read = sharedRef().chromosome(0).sub(60000, 150);
    for (auto _ : state)
        benchmark::DoNotOptimize(grim.evaluate(read, 60000, 5));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_GrimFilterQuery);

// ---------------------------------------------------------------------------
// Before/after rows for the bit-parallel sequence kernels.
// ---------------------------------------------------------------------------

/** A 150 bp read with a realistic sprinkle of edits vs its origin. */
genomics::DnaSequence
editedRead(u64 origin)
{
    auto read = sharedRef().chromosome(0).sub(origin, 150);
    read.set(40, (read.at(40) + 1) & 3u);
    read.set(77, (read.at(77) + 2) & 3u);
    read.set(121, (read.at(121) + 1) & 3u);
    return read;
}

void
BM_EditDistance150Scalar(benchmark::State &state)
{
    auto read = editedRead(70000);
    auto target = sharedRef().chromosome(0).sub(70000, 150);
    for (auto _ : state)
        benchmark::DoNotOptimize(filters::editDistanceScalar(read, target));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_EditDistance150Scalar);

void
BM_EditDistance150Myers(benchmark::State &state)
{
    auto read = editedRead(70000);
    auto target = sharedRef().chromosome(0).sub(70000, 150);
    for (auto _ : state)
        benchmark::DoNotOptimize(filters::editDistance(read, target));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_EditDistance150Myers);

void
BM_EditDistanceBoundedScalar(benchmark::State &state)
{
    auto read = editedRead(71000);
    auto target = sharedRef().chromosome(0).sub(71000, 150);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            filters::editDistanceBoundedScalar(read, target, 5));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_EditDistanceBoundedScalar);

void
BM_EditDistanceBoundedMyers(benchmark::State &state)
{
    auto read = editedRead(71000);
    auto target = sharedRef().chromosome(0).sub(71000, 150);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            filters::editDistanceBounded(read, target, 5));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_EditDistanceBoundedMyers);

void
BM_CandidateEditScalar(benchmark::State &state)
{
    auto read = editedRead(72000);
    auto window = sharedRef().chromosome(0).sub(71995, 160);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            filters::candidateEditDistanceScalar(read, window, 5, 5));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_CandidateEditScalar);

void
BM_CandidateEditMyers(benchmark::State &state)
{
    auto read = editedRead(72000);
    auto window = sharedRef().chromosome(0).sub(71995, 160);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            filters::candidateEditDistance(read, window, 5, 5));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_CandidateEditMyers);

void
BM_MinimizerExtractLegacy(benchmark::State &state)
{
    // The pre-refactor per-base/deque implementation, the scalar
    // oracle of tests/oracles.
    auto seq = sharedRef().chromosome(0).sub(80000, 10000);
    baseline::MinimizerParams params;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            baseline::extractMinimizersScalar(seq, params));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 10000);
}
BENCHMARK(BM_MinimizerExtractLegacy);

void
BM_MinimizerExtractPacked(benchmark::State &state)
{
    auto seq = sharedRef().chromosome(0).sub(80000, 10000);
    baseline::MinimizerParams params;
    for (auto _ : state)
        benchmark::DoNotOptimize(baseline::extractMinimizers(seq, params));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 10000);
}
BENCHMARK(BM_MinimizerExtractPacked);

void
BM_WindowMaterialize(benchmark::State &state)
{
    // Candidate inspection the old way: copy the window, then compare.
    auto read = sharedRef().chromosome(0).sub(90000, 150);
    for (auto _ : state) {
        genomics::DnaSequence window = sharedRef().window(90000, 150);
        benchmark::DoNotOptimize(genomics::hammingDistance(read, window));
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_WindowMaterialize);

void
BM_WindowZeroCopy(benchmark::State &state)
{
    // Candidate inspection the new way: view straight into the genome.
    auto read = sharedRef().chromosome(0).sub(90000, 150);
    for (auto _ : state) {
        genomics::DnaView window = sharedRef().windowView(90000, 150);
        benchmark::DoNotOptimize(
            genomics::hammingDistance(read.view(), window));
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_WindowZeroCopy);

/** Pre-refactor revComp: one push per base, copied as the before row. */
genomics::DnaSequence
legacyRevComp(const genomics::DnaSequence &s)
{
    genomics::DnaSequence out;
    for (std::size_t i = s.size(); i > 0; --i)
        out.push(genomics::complementBase(s.at(i - 1)));
    return out;
}

void
BM_RevCompLegacy(benchmark::State &state)
{
    auto read = sharedRef().chromosome(0).sub(95000, 150);
    for (auto _ : state)
        benchmark::DoNotOptimize(legacyRevComp(read));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_RevCompLegacy);

void
BM_RevCompWord(benchmark::State &state)
{
    auto read = sharedRef().chromosome(0).sub(95000, 150);
    for (auto _ : state)
        benchmark::DoNotOptimize(read.revComp());
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_RevCompWord);

/** A stream that drops its bytes, so only rendering is timed. */
class DiscardBuf : public std::streambuf
{
  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
    int_type
    overflow(int_type c) override
    {
        return traits_type::not_eof(c);
    }
};

/**
 * SAM rendering of 1,024 mapped 2x150 bp FR pairs per iteration (one
 * writePairBatch: the rendered block plus one discarded stream write).
 * Reports bytes/s of SAM text and records/s.
 */
void
BM_SamRenderPairs(benchmark::State &state)
{
    constexpr std::size_t kPairs = 1024;
    const genomics::Reference &ref = sharedRef();
    const genomics::DnaSequence &chrom = ref.chromosome(0);
    util::Pcg32 rng(23);
    std::vector<genomics::ReadPair> pairs(kPairs);
    std::vector<genomics::PairMapping> mappings(kPairs);
    for (std::size_t i = 0; i < kPairs; ++i) {
        const u64 pos = rng.below(static_cast<u32>(chrom.size() - 600));
        const u64 matePos = pos + 150 + rng.below(300);
        pairs[i].first.name = "bench" + std::to_string(i) + "/1";
        pairs[i].first.seq = chrom.sub(pos, 150);
        pairs[i].second.name = "bench" + std::to_string(i) + "/2";
        pairs[i].second.seq = chrom.sub(matePos, 150).revComp();
        for (genomics::Mapping *m :
             { &mappings[i].first, &mappings[i].second }) {
            m->mapped = true;
            m->score = 300;
            m->cigar.push(genomics::CigarOp::Match, 150);
        }
        mappings[i].first.pos = ref.toGlobal(0, pos);
        mappings[i].second.pos = ref.toGlobal(0, matePos);
        mappings[i].second.reverse = true;
    }

    DiscardBuf discard;
    std::ostream sink(&discard);
    genomics::SamWriter writer(sink, ref);
    for (auto _ : state)
        writer.writePairBatch(pairs.data(), mappings.data(), kPairs);
    state.SetBytesProcessed(static_cast<i64>(writer.bytesWritten()));
    state.SetItemsProcessed(static_cast<i64>(writer.recordsWritten()));
}
BENCHMARK(BM_SamRenderPairs);

} // namespace
