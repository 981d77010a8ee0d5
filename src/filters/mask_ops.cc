#include "filters/mask_ops.hh"

#include <bit>

namespace gpx {
namespace filters {

u32
onesRunAt(const align::HammingMask &mask, u32 pos)
{
    if (pos >= mask.bits)
        return 0;
    u32 run = 0;
    u32 i = pos;
    // Walk word by word; countr_one on the shifted word gives the run
    // inside the word in one step.
    while (i < mask.bits) {
        const u32 w = i >> 6;
        const u32 b = i & 63u;
        u64 word = mask.words[w] >> b;
        const u32 avail = std::min<u32>(64 - b, mask.bits - i);
        u32 ones = static_cast<u32>(std::countr_one(word));
        if (ones >= avail) {
            run += avail;
            i += avail;
            continue;
        }
        run += ones;
        return run;
    }
    return run;
}

align::HammingMask
amendShortRuns(const align::HammingMask &mask, u32 min_run)
{
    align::HammingMask out = mask;
    u32 i = 0;
    while (i < mask.bits) {
        if (!mask.test(i)) {
            ++i;
            continue;
        }
        const u32 run = onesRunAt(mask, i);
        if (run < min_run)
            for (u32 j = i; j < i + run; ++j)
                out.words[j >> 6] &= ~(u64{1} << (j & 63u));
        i += run;
    }
    return out;
}

align::HammingMask
orMasks(const align::HammingMask &a, const align::HammingMask &b)
{
    align::HammingMask out = a;
    for (std::size_t w = 0; w < out.words.size() && w < b.words.size();
         ++w)
        out.words[w] |= b.words[w];
    return out;
}

u32
zeroRunCount(const align::HammingMask &mask)
{
    // A zero run starts wherever a 0 bit follows a 1 bit or the mask
    // boundary: starts = ~m & ((m << 1) | 1), carried across words.
    u32 runs = 0;
    u64 carry = 1; // the boundary before bit 0 counts as a 1
    for (u32 w = 0; w * 64 < mask.bits; ++w) {
        u64 word = mask.words[w];
        const u32 remaining = mask.bits - w * 64;
        if (remaining < 64) {
            // Force bits past the end to 1 so they start no run.
            word |= ~u64{0} << remaining;
        }
        const u64 starts = ~word & ((word << 1) | carry);
        runs += static_cast<u32>(std::popcount(starts));
        carry = word >> 63;
    }
    return runs;
}

u32
zeroCount(const align::HammingMask &mask)
{
    return mask.bits - mask.popcount();
}

} // namespace filters
} // namespace gpx
