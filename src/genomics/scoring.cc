#include "genomics/scoring.hh"

#include "util/logging.hh"

namespace gpx {
namespace genomics {

i32
ScoringScheme::scoreAlignment(const DnaSequence &read, const DnaSequence &ref,
                              const Cigar &cigar) const
{
    std::size_t qi = 0;
    std::size_t ri = 0;
    i64 score = 0;
    for (const auto &e : cigar.elems()) {
        switch (e.op) {
          case CigarOp::Match:
          case CigarOp::Equal:
          case CigarOp::Diff:
            for (u32 k = 0; k < e.len; ++k) {
                gpx_assert(qi < read.size() && ri < ref.size(),
                           "CIGAR overruns sequences");
                score += read.at(qi) == ref.at(ri) ? match : -mismatch;
                ++qi;
                ++ri;
            }
            break;
          case CigarOp::Insertion:
            score -= gapCost(e.len);
            qi += e.len;
            break;
          case CigarOp::Deletion:
            score -= gapCost(e.len);
            ri += e.len;
            break;
          case CigarOp::SoftClip:
            qi += e.len;
            break;
        }
    }
    return static_cast<i32>(score);
}

} // namespace genomics
} // namespace gpx
