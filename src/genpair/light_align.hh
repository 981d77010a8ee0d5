/**
 * @file
 * Light Alignment (paper §4.6, Fig. 5; hardware module §5.4).
 *
 * Aligns a read at a known candidate position without dynamic
 * programming, covering exactly the single-edit-type cases of paper
 * Table 1: k scattered mismatches, one run of k consecutive insertions,
 * or one run of k consecutive deletions. The algorithm computes 2e+1
 * Hamming masks between the read and shifted copies of the reference
 * window and reasons about the longest all-ones prefix/suffix of each
 * mask. All hypotheses within the edit bound are evaluated and the
 * best-scoring valid one is returned, so within its bound the result is
 * optimal (paper §8). Anything else falls back to DP.
 */

#ifndef GPX_GENPAIR_LIGHT_ALIGN_HH
#define GPX_GENPAIR_LIGHT_ALIGN_HH

#include "align/shd.hh"
#include "genomics/cigar.hh"
#include "genomics/reference.hh"
#include "genomics/scoring.hh"
#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace genpair {

/** Light Alignment configuration. */
struct LightAlignParams
{
    /**
     * Maximum consecutive insertions/deletions detectable: e. Requires
     * 2e+1 Hamming masks (the hardware computes 8 masks per cycle with
     * e=5 per Table 1's "5 consecutive deletions" bound plus shift 0 and
     * the insertion shifts).
     */
    u32 maxShift = 5;
    /** Maximum scattered mismatches accepted on the fast path. */
    u32 maxMismatches = 3;
    /**
     * Acceptance threshold on the alignment score; 276 reproduces paper
     * Table 1 for 150 bp reads (relative threshold for other lengths is
     * handled by minScoreFor()).
     */
    i32 minScore = 276;
    genomics::ScoringScheme scoring = genomics::ScoringScheme::shortRead();

    /** Threshold scaled to a read length (276/300 of the perfect score). */
    i32
    minScoreFor(u32 read_len) const
    {
        if (read_len == 150)
            return minScore;
        double frac = static_cast<double>(minScore) / 300.0;
        return static_cast<i32>(frac * scoring.perfectScore(read_len));
    }
};

/**
 * The one edit run a light alignment places (paper Table 1): scattered
 * mismatches only, or one run of @p gap consecutive deletions or
 * insertions after read position @p split. Compact, so the hypothesis
 * search keeps its winner without building a CIGAR.
 */
struct LightEdit
{
    enum class Kind : u8
    {
        Mismatches, ///< no gap: the read aligns ungapped
        Deletion,   ///< @p gap reference bases skipped
        Insertion,  ///< @p gap extra read bases
    };
    Kind kind = Kind::Mismatches;
    u32 split = 0; ///< read bases before the gap (p)
    u32 gap = 0;   ///< gap length (k)
};

/** Result of one light alignment attempt. */
struct LightResult
{
    bool aligned = false;
    i32 score = 0;
    /** Final alignment start (candidate start shifts for deletions). */
    GlobalPos pos = kInvalidPos;
    /** Hypotheses evaluated (hardware cycles model input). */
    u32 hypothesesTried = 0;
    u32 readLen = 0;
    LightEdit edit; ///< the winner's edit (meaningful when aligned)

    /** The winner's alignment as a CIGAR; empty when not aligned. */
    genomics::Cigar cigar() const;
};

/**
 * Admission gate consulted before each light-alignment attempt (the
 * paper SS8 combination point: a cheap pre-alignment filter such as
 * SneakySnake drops hopeless candidates before any hypothesis is
 * evaluated). Implementations live outside genpair (see
 * filters::FilterGate); the pipeline only sees this interface.
 *
 * Call order: the light-align stage runs inside its batched sweeps, so
 * for one batch it asks about every budgeted left side first (pair by
 * pair, orientation by orientation, in candidate order) and then about
 * the right side of each left that aligned, in the same order. A
 * verdict must therefore be a pure function of (read, candidate):
 * never of earlier calls. Counting calls is fine, since every run
 * makes the same set of them.
 */
class LightAlignGate
{
  public:
    virtual ~LightAlignGate() = default;

    /** True when the candidate is worth light-aligning. */
    virtual bool admit(const genomics::DnaSequence &read,
                       GlobalPos candidate) = 0;
};

/**
 * One candidate of a LightAligner::alignBatch() run: the read's
 * prebuilt bit planes plus the candidate start. Planes are shared
 * across the candidates of one read, so the batch stage builds them
 * once per pair side.
 */
struct LightBatchItem
{
    const align::BitPlanes *read = nullptr;
    GlobalPos candidate = 0;
};

/**
 * Scratch of the SIMD-across-batch light aligner: the lane-major
 * ShdBatch staging plus per-lane window planes. Owned by the caller
 * (PairBatch keeps one) and reused; warm runs are allocation-free.
 */
struct LightBatchScratch
{
    align::ShdBatch shd;
    std::vector<align::BitPlanes> windows;
};

/** The Light Alignment engine. */
class LightAligner
{
  public:
    LightAligner(const genomics::Reference &ref,
                 const LightAlignParams &params)
        : ref_(ref), params_(params)
    {
    }

    const LightAlignParams &params() const { return params_; }

    /**
     * Attempt to light-align @p read with its first base at reference
     * position @p candidate: a one-item alignBatch() over a fresh
     * scratch. The convenience form for filters, benches and examples;
     * the stage graph batches its candidates instead.
     */
    LightResult align(const genomics::DnaView &read,
                      GlobalPos candidate) const;

    /**
     * Evaluate @p count candidates, computing the 2e+1 shifted Hamming
     * masks of up to simdMaskLanes() lanes per vector register
     * (align::ShdBatch; one lane under SimdBackend::Scalar). All reads
     * of one lane group must share a length; the grouping is handled
     * here: consecutive items with equal read length fill a group, a
     * length change starts a new one. Results do not depend on the
     * backend or the grouping; tests/test_simd.cc pins out[i] against
     * the mask-by-mask oracle under every backend.
     */
    void alignBatch(const LightBatchItem *items, std::size_t count,
                    LightBatchScratch &scratch, LightResult *out) const;

    /**
     * Hypothesis evaluation over per-shift mask statistics, run per
     * lane by alignBatch(). The search only ever needs
     * the three statistics per shift, never raw mask bits, which is
     * what lets the batch kernel hand lane-major stat arrays straight
     * in: entry s of each array lives at [s * stride]. Every score
     * comes from counts and nothing is allocated; the winner is the
     * first best-scoring hypothesis in visit order. Public for the
     * oracle tests.
     */
    LightResult evaluateHypotheses(u32 read_len, u32 center,
                                   const u32 *popcount,
                                   const u32 *prefix, const u32 *suffix,
                                   u32 stride) const;

  private:
    const genomics::Reference &ref_;
    LightAlignParams params_;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_LIGHT_ALIGN_HH
