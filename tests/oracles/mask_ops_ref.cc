/**
 * @file
 * The bit-at-a-time walk that counts zero runs, the oracle of the
 * word-parallel filters::zeroRunCount().
 */

#include "oracles/oracles.hh"

namespace gpx {
namespace filters {

u32
zeroRunCountRef(const align::HammingMask &mask)
{
    u32 runs = 0;
    bool inRun = false;
    for (u32 i = 0; i < mask.bits; ++i) {
        const bool zero = !mask.test(i);
        if (zero && !inRun)
            ++runs;
        inRun = zero;
    }
    return runs;
}

} // namespace filters
} // namespace gpx
