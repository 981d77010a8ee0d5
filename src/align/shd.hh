/**
 * @file
 * Bit-parallel Shifted Hamming Distance (SHD) primitives.
 *
 * The Light Alignment step (paper §4.6) compares a read against 2e+1
 * shifted copies of the reference window and reasons about the longest
 * all-ones prefix/suffix of each Hamming mask. The hardware computes all
 * masks in one cycle with vectorized XOR (§5.4); in software each mask is
 * three 64-bit words for a 150 bp read.
 */

#ifndef GPX_ALIGN_SHD_HH
#define GPX_ALIGN_SHD_HH

#include <vector>

#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace align {

/** One Hamming mask: bit i set iff read base i equals the shifted ref. */
struct HammingMask
{
    std::vector<u64> words;
    u32 bits = 0;

    /** Number of 1-bits (matching positions). */
    u32 popcount() const;

    /** Length of the run of 1s starting at bit 0. */
    u32 onesPrefix() const;

    /** Length of the run of 1s ending at bit bits-1. */
    u32 onesSuffix() const;

    /** Value of bit i. */
    bool test(u32 i) const;
};

/**
 * Precomputed bit-planes of a sequence, enabling O(words) equality-mask
 * construction against another plane set at an arbitrary offset.
 */
class BitPlanes
{
  public:
    BitPlanes() = default;
    explicit BitPlanes(const genomics::DnaView &seq);

    /**
     * Rebuild the planes over @p seq, reusing the word storage. The
     * batched light-alignment stage re-plans one window per candidate;
     * this keeps that loop allocation-free once warm.
     */
    void assign(const genomics::DnaView &seq);

    u32 bits() const { return bits_; }

    /**
     * Equality mask of this sequence (read) against @p ref starting at
     * @p ref_offset: mask bit i = (this[i] == ref[ref_offset + i]).
     * Positions where the ref window runs out are 0 (mismatch).
     */
    HammingMask equalityMask(const BitPlanes &ref, u32 ref_offset) const;

    /** equalityMask() writing into @p out, reusing its word storage. */
    void equalityMaskInto(const BitPlanes &ref, u32 ref_offset,
                          HammingMask &out) const;

    /** Raw plane words (the batch kernels gather these lane-major). */
    const std::vector<u64> &lo() const { return lo_; }
    const std::vector<u64> &hi() const { return hi_; }

  private:
    std::vector<u64> lo_;
    std::vector<u64> hi_;
    u32 bits_ = 0;
};

/**
 * Compute the 2e+1 Hamming masks of @p read against @p window, where the
 * read's nominal start is at @p center within the window. masks[e + s]
 * compares read[i] with window[center + i + s] for shifts s in [-e, +e].
 */
std::vector<HammingMask> shiftedMasks(const genomics::DnaView &read,
                                      const genomics::DnaView &window,
                                      u32 center, u32 e);

/**
 * shiftedMasks() over prebuilt planes, writing into @p out (resized to
 * 2e+1; per-mask word storage is reused). The one-candidate form that
 * ShdBatch reproduces lane by lane.
 */
void shiftedMasksInto(const BitPlanes &read_planes,
                      const BitPlanes &window_planes, u32 center, u32 e,
                      std::vector<HammingMask> &out);

/**
 * SIMD-across-batch shifted-mask statistics: the 2e+1 Hamming masks of
 * up to L (read, window) candidate lanes computed per vector register,
 * with per-(shift, lane) popcount and all-ones prefix/suffix lengths —
 * exactly the three statistics the Light Alignment hypothesis search
 * and the SHD-family filters consume.
 *
 * Usage: begin() fixes the lane geometry (uniform read length and
 * center; per-lane windows may differ in length), setLane() gathers
 * each lane's packed plane words into the lane-major staging buffers,
 * run() executes the kernel for the active util::SimdBackend. Every
 * output word is bit-identical to the corresponding scalar
 * shiftedMasksInto() mask (lanes never mix), pinned by
 * tests/test_simd.cc.
 *
 * Buffers are owned by the caller's scratch (LightBatchScratch embeds
 * one) and reused across runs; warm runs are allocation-free.
 */
struct ShdBatch
{
    u32 lanes = 0;     ///< lanes staged in this run
    u32 bits = 0;      ///< uniform read length n
    u32 center = 0;    ///< nominal read start inside each window
    u32 e = 0;         ///< max shift (2e+1 masks)
    u32 readWords = 0; ///< plane words per read lane
    u32 winWords = 0;  ///< staged (zero-padded) plane words per window lane

    // Lane-major staging: [word * lanes + lane].
    std::vector<u64> readLo, readHi;
    std::vector<u64> winLo, winHi;
    std::vector<u32> winBits; ///< per-lane window length

    // Lane-major results: masks [(shift * readWords + word) * lanes +
    // lane], statistics [shift * lanes + lane].
    std::vector<u64> maskWords;
    std::vector<u32> popcount;
    std::vector<u32> prefix;
    std::vector<u32> suffix;

    /** Reset geometry for a batch of @p lane_count candidate lanes. */
    void begin(u32 lane_count, u32 read_bits, u32 center_off,
               u32 max_shift);

    /** Gather one lane's plane words into the staging buffers. */
    void setLane(u32 lane, const BitPlanes &read_planes,
                 const BitPlanes &window_planes);

    /** Compute masks + statistics for every staged lane. */
    void run();

    u32 shifts() const { return 2 * e + 1; }

    u64
    maskWord(u32 shift, u32 w, u32 lane) const
    {
        return maskWords[(static_cast<std::size_t>(shift) * readWords + w) *
                             lanes +
                         lane];
    }
    u32 pop(u32 shift, u32 lane) const
    {
        return popcount[static_cast<std::size_t>(shift) * lanes + lane];
    }
    u32 pre(u32 shift, u32 lane) const
    {
        return prefix[static_cast<std::size_t>(shift) * lanes + lane];
    }
    u32 suf(u32 shift, u32 lane) const
    {
        return suffix[static_cast<std::size_t>(shift) * lanes + lane];
    }
};

} // namespace align
} // namespace gpx

#endif // GPX_ALIGN_SHD_HH
