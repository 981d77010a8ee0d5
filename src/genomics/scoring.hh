/**
 * @file
 * Affine-gap alignment scoring model.
 *
 * GenPair adopts Minimap2's short-read scoring scheme (paper §3.4): match
 * +A, mismatch -B, and a two-piece affine gap penalty
 * cost(k) = min(q1 + k*e1, q2 + k*e2). With the sr preset
 * (A=2, B=8, q1=12, e1=2, q2=32, e2=1) a perfect 150 bp alignment scores
 * 300 and the edit table of paper Table 1 follows exactly.
 */

#ifndef GPX_GENOMICS_SCORING_HH
#define GPX_GENOMICS_SCORING_HH

#include "genomics/cigar.hh"
#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace genomics {

/** Affine-gap scoring parameters (Minimap2 conventions). */
struct ScoringScheme
{
    i32 match = 2;       ///< score of a matching base (+A)
    i32 mismatch = 8;    ///< penalty of a mismatching base (-B)
    i32 gapOpen1 = 12;   ///< first gap-open penalty (q1)
    i32 gapExtend1 = 2;  ///< first gap-extend penalty (e1)
    i32 gapOpen2 = 32;   ///< second gap-open penalty (q2)
    i32 gapExtend2 = 1;  ///< second gap-extend penalty (e2)

    /** Minimap2 short-read (sr) preset, the paper's scheme. */
    static ScoringScheme shortRead() { return {}; }

    /** Cost of a gap of length k: min(q1 + k*e1, q2 + k*e2). */
    i32
    gapCost(u32 k) const
    {
        if (k == 0)
            return 0;
        i64 c1 = gapOpen1 + static_cast<i64>(k) * gapExtend1;
        i64 c2 = gapOpen2 + static_cast<i64>(k) * gapExtend2;
        return static_cast<i32>(c1 < c2 ? c1 : c2);
    }

    /** Score of a perfect alignment of the given read length. */
    i32
    perfectScore(u32 read_len) const
    {
        return static_cast<i32>(read_len) * match;
    }

    /**
     * Score of an alignment with the given composition: the
     * single-edit-type shapes of paper Table 1 plus their combinations
     * with mismatches.
     *
     * @param matches Number of exactly matching bases.
     * @param mismatches Number of mismatching bases.
     * @param gap Length of the one contiguous gap (insertion or
     *            deletion run), charged the affine cost; 0 for none.
     */
    i32
    scoreFromCounts(u32 matches, u32 mismatches, u32 gap = 0) const
    {
        return static_cast<i32>(static_cast<i64>(matches) * match -
                                static_cast<i64>(mismatches) * mismatch -
                                gapCost(gap));
    }

    /**
     * Score a CIGAR against concrete sequences; M runs are split into
     * matches and mismatches by comparing bases.
     *
     * @param read The read sequence.
     * @param ref Reference window starting at the alignment position.
     * @param cigar Alignment to score.
     */
    i32 scoreAlignment(const DnaSequence &read, const DnaSequence &ref,
                       const Cigar &cigar) const;
};

} // namespace genomics
} // namespace gpx

#endif // GPX_GENOMICS_SCORING_HH
