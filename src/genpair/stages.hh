/**
 * @file
 * The explicit stage graph of the Fig. 3 pipeline over
 * structure-of-arrays batches.
 *
 * A PairBatch flows through SeedStage -> QueryStage -> PaFilterStage ->
 * LightAlignStage -> FallbackStage. Each stage is a pure function over
 * the batch: it reads the lanes earlier stages filled, appends its own,
 * routes pairs that exit the fast path (the Fig. 10 fallback classes)
 * and bumps its StageCounters. The graph is the only mapping path:
 * GenPairPipeline::mapPair() is a batch of one, and a pair's mapping
 * does not depend on the batch it travels in (test_driver pins that;
 * the golden-corpus SAM digest pins the bytes). The light-align stage
 * runs LightAligner::alignBatch() and the fallback stage runs
 * Mm2Lite::mapPairsBatch()/alignAtBatch(), and every scratch buffer
 * (revComp storage, CSR candidate stores, bit planes, mask staging)
 * is reused across batches.
 *
 * Lane convention (a proper FR pair maps one read forward and the other
 * reverse-complemented; both fragment orientations are evaluated):
 *
 *   lane 0: orientation A left  = read 1 forward
 *   lane 1: orientation A right = revComp(read 2)
 *   lane 2: orientation B left  = read 2 forward
 *   lane 3: orientation B right = revComp(read 1)
 *
 * Candidate lists live in one CSR store per batch
 * (candOffsets[4*i+lane] .. candOffsets[4*i+lane+1] indexes
 * candidates), candidate pairs likewise with two lanes per pair.
 */

#ifndef GPX_GENPAIR_STAGES_HH
#define GPX_GENPAIR_STAGES_HH

#include <array>
#include <iosfwd>
#include <vector>

#include "baseline/mm2lite.hh"
#include "genomics/readpair.hh"
#include "genpair/light_align.hh"
#include "genpair/pafilter.hh"
#include "genpair/seeder.hh"
#include "genpair/seedmap.hh"
#include "util/types.hh"

namespace gpx {
namespace genpair {

struct GenPairParams;
struct PipelineStats;

/** The five stages of the Fig. 3 graph (with the Fig. 10 fallbacks). */
enum class StageId : u32
{
    Seed = 0,
    Query,
    PaFilter,
    LightAlign,
    Fallback,
};

inline constexpr u32 kNumStages = 5;

/** Human-readable stage name ("seed", "query", ...). */
const char *stageName(StageId id);

/**
 * Per-stage execution counters. itemsOut means "pairs that left the
 * stage successfully": still on the fast path for Seed/Query/PaFilter,
 * fast-path aligned for LightAlign, mapped for Fallback.
 */
struct StageCounters
{
    u64 batches = 0;  ///< stage invocations (batch granularity)
    u64 itemsIn = 0;  ///< pairs entering the stage
    u64 itemsOut = 0; ///< pairs leaving the stage successfully

    StageCounters &
    operator+=(const StageCounters &other)
    {
        batches += other.batches;
        itemsIn += other.itemsIn;
        itemsOut += other.itemsOut;
        return *this;
    }
};

/** Where a pair is in the graph / which Fig. 10 exit it took. */
enum class PairRoute : u8
{
    Pending = 0,   ///< still on the fast path
    LightAligned,  ///< fast path end to end
    LightFallback, ///< exit 3: light alignment rejected (DP at candidates)
    SeedMiss,      ///< exit 1: SeedMap returned nothing (full DP)
    PaMiss,        ///< exit 2: adjacency filter emptied (full DP)
};

/**
 * Recorded stage events of one pair — the co-simulation hand-off. The
 * six seed lookups are the orientation-A stream (read 1 forward then
 * revComp(read 2)), exactly what hwsim::buildWorkload() synthesizes and
 * the Partitioned Seeding hardware module emits; locCount is the raw
 * Location Table list length of each seed. route/filterIterations/
 * lightAligns let the hwsim trace adapter rebuild a WorkloadProfile
 * from a real run instead of the paper's reference numbers.
 */
struct PairTraceRecord
{
    std::array<u32, 6> seedHash{};
    std::array<u32, 6> locCount{};
    PairRoute route = PairRoute::Pending;
    u32 filterIterations = 0;
    u32 lightAligns = 0;

    /** Serialize as one "P ..." trace line (format: trace_adapter.hh). */
    void writeText(std::ostream &os) const;
};

/** One budgeted candidate pair of one orientation (batched sweeps). */
struct CandidateRef
{
    u64 pair;
    u64 cand; ///< index into PairBatch::candidatePairs
    u32 orient;
};

/** The structure-of-arrays batch flowing through the stage graph. */
struct PairBatch
{
    // Bound per mapBatch() call (non-owning).
    const genomics::ReadPair *pairs = nullptr;
    u64 size = 0;
    genomics::PairMapping *out = nullptr;
    PairTraceRecord *trace = nullptr; ///< optional, 1:1 with pairs

    // SoA lanes; storage is reused across batches.
    std::vector<genomics::DnaSequence> rc1; ///< revComp(read 1) per pair
    std::vector<genomics::DnaSequence> rc2; ///< revComp(read 2) per pair
    std::vector<ReadSeeds> seeds;           ///< 4 lanes per pair
    std::vector<u64> candOffsets;     ///< CSR, 4*size+1 into candidates
    std::vector<GlobalPos> candidates;
    std::vector<u64> pairOffsets;     ///< CSR, 2*size+1 into candidatePairs
    std::vector<CandidatePair> candidatePairs;
    std::vector<PairRoute> route;

    // Batched light-alignment state: read bit planes per pair x
    // orientation ([2*i+o], built on demand and shared by every
    // candidate of that side) plus the lane-major ShdBatch staging.
    std::vector<align::BitPlanes> lightLeft;
    std::vector<align::BitPlanes> lightRight;
    std::vector<u8> lightLeftValid;
    std::vector<u8> lightRightValid;
    LightBatchScratch lightBatch;

    // Staging of the phased (left sweep, then right sweep) light-align
    // and exit-3 DP stages, plus the fallback class lists. Each stage
    // clears what it uses, so capacity carries across batches.
    std::vector<CandidateRef> sweepCands;
    std::vector<std::size_t> rightSlot; ///< sweepCands -> right sweep
    std::vector<LightBatchItem> lightLeftItems;
    std::vector<LightBatchItem> lightRightItems;
    std::vector<LightResult> lightLeftRes;
    std::vector<LightResult> lightRightRes;
    std::vector<u64> fullDp; ///< exits 1+2: full seed-chain-align DP
    std::vector<u64> exit3;  ///< exit 3: DP at known candidate pairs
    std::vector<const genomics::ReadPair *> fullDpPairs;
    std::vector<genomics::PairMapping> fullDpOut;
    std::vector<baseline::Mm2Lite::AlignAtTask> dpLeftTasks;
    std::vector<baseline::Mm2Lite::AlignAtTask> dpRightTasks;
    std::vector<genomics::Mapping> dpLeftRes;
    std::vector<genomics::Mapping> dpRightRes;

    /** Bind a run and size the SoA lanes (capacity is kept). */
    void bind(const genomics::ReadPair *p, u64 n,
              genomics::PairMapping *o, PairTraceRecord *t);
};

/**
 * Everything a stage needs: the shared read-only index state, the
 * per-worker engines and the counter sink. Stages never own state, so
 * one context can drive any number of batches.
 */
struct StageContext
{
    const genomics::Reference &ref;
    const SeedMapView &map;
    const GenPairParams &params;
    const PartitionedSeeder &seeder;
    const LightAligner &light;
    LightAlignGate *gate;         ///< may be null
    baseline::Mm2Lite *fallback;  ///< may be null (residuals -> unmapped)
    PipelineStats &stats;
};

/** Orientation + seed extraction into the batch lanes. */
void runSeedStage(const StageContext &ctx, PairBatch &batch);

/** SeedMap lookups into the CSR candidate store; routes exit 1. */
void runQueryStage(const StageContext &ctx, PairBatch &batch);

/** Paired-adjacency filtering per orientation; routes exit 2. */
void runPaFilterStage(const StageContext &ctx, PairBatch &batch);

/** Budgeted light alignment over candidate pairs; routes exit 3. */
void runLightAlignStage(const StageContext &ctx, PairBatch &batch);

/** Fig. 10 DP fallbacks for every routed pair. */
void runFallbackStage(const StageContext &ctx, PairBatch &batch);

/** The full graph in Fig. 3 order. */
void runStageGraph(const StageContext &ctx, PairBatch &batch);

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_STAGES_HH
