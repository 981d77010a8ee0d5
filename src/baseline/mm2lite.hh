/**
 * @file
 * Mm2Lite: a Minimap2-like seed-chain-align read mapper.
 *
 * Serves three roles from the paper's evaluation (§6):
 *  - the "MM2 (CPU)" software baseline,
 *  - the traditional DP pipeline that GenPair falls back to when SeedMap
 *    or the Paired-Adjacency filter fails (Fig. 10, left fallback arrows),
 *  - the per-stage timing source for the Fig. 1 execution-time breakdown.
 */

#ifndef GPX_BASELINE_MM2LITE_HH
#define GPX_BASELINE_MM2LITE_HH

#include <memory>
#include <span>
#include <vector>

#include "align/affine.hh"
#include "align/chain.hh"
#include "baseline/minimizer_index.hh"
#include "genomics/readpair.hh"
#include "genomics/reference.hh"
#include "genomics/scoring.hh"
#include "util/timer.hh"
#include "util/types.hh"

namespace gpx {
namespace baseline {

/** Mapper configuration. */
struct Mm2LiteParams
{
    MinimizerParams minimizers;
    align::ChainParams chain;
    genomics::ScoringScheme scoring = genomics::ScoringScheme::shortRead();
    u32 alignSlack = 48;   ///< extra reference bases around a chain window
    i32 minAlignScore = 60;///< discard alignments below this score
    u32 maxInsert = 1200;  ///< maximum proper-pair insert size
    u32 maxCandidates = 6; ///< alignments attempted per read
};

/** Stage names used with the breakdown timers. */
namespace stages {
inline constexpr const char *kSeeding = "seeding";
inline constexpr const char *kChaining = "chaining";
inline constexpr const char *kAlignment = "alignment";
inline constexpr const char *kPairing = "pairing/other";
} // namespace stages

/** DP work counters (MCUPS accounting for GenDP integration, §7.4). */
struct DpWork
{
    u64 chainCells = 0;
    u64 alignCells = 0;
    u64 laneGroups = 0; ///< batched DP sweeps run (align::LaneFill)
    u64 lanesUsed = 0;  ///< alignments those sweeps carried
};

/** Seed-chain-align mapper with paired-end resolution. */
class Mm2Lite
{
  public:
    Mm2Lite(const genomics::Reference &ref, const Mm2LiteParams &params);

    /**
     * Construct with a shared index (built once in memory or served
     * from an image, then handed to per-thread mappers). The index's
     * minimizer scheme overrides params.minimizers.
     */
    Mm2Lite(const genomics::Reference &ref, const Mm2LiteParams &params,
            std::shared_ptr<const MinimizerIndex> index);

    /**
     * Map a single read; returns candidate mappings sorted by score.
     * A one-read run of the staging mapPairsBatch() uses.
     */
    std::vector<genomics::Mapping> mapRead(const genomics::Read &read);

    /**
     * Map a pair with the FR orientation / insert-size constraint: a
     * one-pair mapPairsBatch().
     */
    genomics::PairMapping mapPair(const genomics::ReadPair &pair);

    /**
     * Map @p count pairs through the interleaved DP engine: every
     * chain alignment of every read in the batch joins one
     * align::fitAlignBatch() run, so length-uniform short-read batches
     * fill all SIMD lanes across read and pair boundaries. Lanes never
     * exchange data, so a pair's mapping does not depend on the batch
     * it joins or on the SIMD backend.
     */
    void mapPairsBatch(const genomics::ReadPair *const *pairs,
                       std::size_t count, genomics::PairMapping *out);

    /**
     * Align a read at a known candidate position (the "DP-Alignment"
     * fallback entry of Fig. 10 that bypasses seeding and chaining).
     * One scalar fitAlign(); alignAtBatch() is the batched form.
     *
     * @param read Read to align (already in forward orientation).
     * @param pos Expected start of the alignment on the reference.
     * @param slack Window slack on both sides.
     */
    genomics::Mapping alignAt(const genomics::DnaSequence &read,
                              GlobalPos pos, u32 slack);

    /** One alignAt() request inside an alignAtBatch() run. */
    struct AlignAtTask
    {
        const genomics::DnaSequence *read = nullptr;
        GlobalPos pos = 0;
        u32 slack = 0;
    };

    /**
     * alignAt() over a batch of independent requests, interleaved
     * across SIMD lanes. out[i] is bit-identical to
     * alignAt(*tasks[i].read, tasks[i].pos, tasks[i].slack).
     */
    void alignAtBatch(const AlignAtTask *tasks, std::size_t count,
                      genomics::Mapping *out);

    /** Per-stage wall-clock accumulators (Fig. 1). */
    util::StageTimers &timers() { return timers_; }
    const util::StageTimers &timers() const { return timers_; }

    /** DP cell-update counters. */
    const DpWork &dpWork() const { return dpWork_; }

    const Mm2LiteParams &params() const { return params_; }
    const genomics::Reference &reference() const { return ref_; }

  private:
    /** One batched alignment's way back to its read. */
    struct TaskRef
    {
        u32 read;     ///< index into the batch's reads
        bool reverse; ///< strand of the chain the window came from
        GlobalPos wstart;
    };

    /** Run the staged batch_.tasks through fitAlignBatch(). */
    void runBatchTasks();
    /** Clear the task staging for a run over @p reads reads. */
    void beginBatch(std::size_t reads);
    /** Plan @p read and stage one FitTask per chain window as read @p r. */
    void stageRead(u32 r, const genomics::Read &read);
    /**
     * Align the staged tasks of @p reads reads into batch_.mappings,
     * grouped by read (batch_.mappingEnds).
     */
    void alignStaged(std::size_t reads);

    /** Seed @p read into plan_.anchors. */
    void collectAnchors(const genomics::Read &read);
    /** Seed and chain @p read into plan_.chains. */
    void planRead(const genomics::Read &read);
    /**
     * Sort @p mappings by score and move the first mapping of each
     * position to the front; returns how many that kept.
     */
    std::size_t finishRead(std::span<genomics::Mapping> mappings);
    genomics::PairMapping
    pairFromCandidates(std::span<const genomics::Mapping> cands1,
                       std::span<const genomics::Mapping> cands2);

    const genomics::Reference &ref_;
    Mm2LiteParams params_;
    std::shared_ptr<const MinimizerIndex> index_;
    util::StageTimers timers_;
    DpWork dpWork_;
    /**
     * DP working set of alignAt(), reused across calls (drivers keep
     * one Mm2Lite per worker).
     */
    align::AlignScratch alignScratch_;
    /** Lane-major working set of the interleaved batch DP engine. */
    align::BatchAlignScratch batchScratch_;
    /**
     * Task staging of mapPairsBatch() (and so of mapRead() and
     * mapPair()) and of alignAtBatch(), cleared per call with its
     * capacity kept.
     */
    struct
    {
        std::vector<align::FitTask> tasks;
        std::vector<align::AlignResult> results;
        std::vector<TaskRef> refs;      ///< mapPairsBatch: 1:1 with tasks
        std::vector<GlobalPos> wstarts; ///< alignAtBatch: 1:1 with tasks
        /** mapPairsBatch: read r's reverse complement (FitTasks view it). */
        std::vector<genomics::DnaSequence> rcs;
        /** mapPairsBatch: every read's mappings, grouped by read. */
        std::vector<genomics::Mapping> mappings;
        /** mapPairsBatch: end of read r's group in mappings. */
        std::vector<u32> mappingEnds;
    } batch_;
    /**
     * Per-read staging of seeding, chaining and deduplication, cleared
     * per read with its capacity kept: planning a warm engine's reads
     * allocates nothing here.
     */
    struct
    {
        std::vector<Minimizer> minimizers;
        std::vector<std::span<const MinimizerIndex::Entry>> hits;
        std::vector<align::Anchor> anchors;
        std::vector<align::Anchor> fwd; ///< anchors split by strand
        std::vector<align::Anchor> rev;
        std::vector<align::Chain> chains; ///< planRead's output
        std::vector<u64> seen; ///< finishRead's kept (pos, strand) keys
    } plan_;
};

} // namespace baseline
} // namespace gpx

#endif // GPX_BASELINE_MM2LITE_HH
