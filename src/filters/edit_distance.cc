#include "filters/edit_distance.hh"

#include <algorithm>
#include <limits>
#include <vector>

namespace gpx {
namespace filters {

using genomics::DnaView;

namespace {

constexpr u32 kNoCutoff = std::numeric_limits<u32>::max();

/** Pattern blocks served from the stack (256 bases covers any read). */
constexpr u32 kStackBlocks = 4;

/**
 * Build the per-base match masks of the pattern into @p peq (4*W
 * words): peq[c * W + b] bit i is set when pattern base 64*b + i equals
 * code c. Derived word-parallel straight from the packed words — no
 * intermediate plane vectors. Bits past the pattern's last base are
 * zero, which only feeds the (unread) garbage bits above the score row.
 */
void
buildPatternEq(const DnaView &pat, u32 m, u32 W, u64 *peq)
{
    const std::size_t nw = pat.numWords();
    for (u32 b = 0; b < W; ++b) {
        u64 v0 = pat.word(2 * b);
        u64 v1 = 2 * b + 1 < nw ? pat.word(2 * b + 1) : 0;
        u64 l = genomics::detail::evenBits(v0) |
                (genomics::detail::evenBits(v1) << 32);
        u64 h = genomics::detail::evenBits(v0 >> 1) |
                (genomics::detail::evenBits(v1 >> 1) << 32);
        u64 valid =
            m - 64 * b >= 64 ? ~u64{0} : (u64{1} << (m - 64 * b)) - 1;
        peq[genomics::BaseA * W + b] = ~l & ~h & valid;
        peq[genomics::BaseC * W + b] = l & ~h;
        peq[genomics::BaseG * W + b] = ~l & h;
        peq[genomics::BaseT * W + b] = l & h;
    }
}

/**
 * Blocked Myers bit-vector edit distance of @p pat against @p text.
 *
 * fitting=false: global distance D(m, n) with boundary D(0, j) = j
 * (horizontal +1 fed into the bottom block each column). When
 * @p cutoff != kNoCutoff, returns early with any value > cutoff once
 * score_j - (columns left) proves the final distance exceeds it.
 *
 * fitting=true: free text prefix (boundary D(0, j) = 0) and suffix —
 * returns min_j D(m, j), the semi-global "fitting" distance.
 */
u32
myersDistance(const DnaView &pat, const DnaView &text, bool fitting,
              u32 cutoff)
{
    const u32 m = static_cast<u32>(pat.size());
    const u32 n = static_cast<u32>(text.size());
    if (m == 0)
        return fitting ? 0 : n;
    if (n == 0)
        return m;

    // State lives on the stack for any read-sized pattern (<= 256
    // bases); only long-pattern calls pay one allocation.
    const u32 W = (m + 63) / 64;
    u64 stackBuf[6 * kStackBlocks];
    std::vector<u64> heapBuf;
    u64 *buf = stackBuf;
    if (W > kStackBlocks) {
        heapBuf.resize(6 * static_cast<std::size_t>(W));
        buf = heapBuf.data();
    }
    u64 *const peq = buf;          // 4*W words
    u64 *const Pv = buf + 4 * W;   // W words
    u64 *const Mv = buf + 5 * W;   // W words
    buildPatternEq(pat, m, W, peq);
    for (u32 b = 0; b < W; ++b) {
        Pv[b] = ~u64{0};
        Mv[b] = 0;
    }
    u32 score = m;
    u32 best = m; // fitting: D(m, 0) = m
    const u32 scoreShift = (m - 1) & 63u; // score row's bit in last block
    const u32 WL = W - 1;

    u32 j = 0;
    const std::size_t tw = text.numWords();
    for (std::size_t wi = 0; wi < tw; ++wi) {
        u64 tword = text.word(wi);
        u32 cnt = static_cast<u32>(
            std::min<std::size_t>(32, n - 32 * wi));
        for (u32 t = 0; t < cnt; ++t, ++j) {
            const u32 c = static_cast<u32>(tword & 0x3u);
            tword >>= 2;
            const u64 *peqc = peq + c * W;
            // Horizontal delta entering the bottom block: the row-0
            // boundary of the DP matrix.
            int hin = fitting ? 0 : 1;
            for (u32 b = 0; b <= WL; ++b) {
                const u64 Pvb = Pv[b];
                const u64 Mvb = Mv[b];
                u64 Eq = peqc[b];
                const u64 hinNeg = hin < 0 ? u64{1} : u64{0};
                const u64 Xv = Eq | Mvb;
                Eq |= hinNeg;
                const u64 Xh = (((Eq & Pvb) + Pvb) ^ Pvb) | Eq;
                u64 Ph = Mvb | ~(Xh | Pvb);
                u64 Mh = Pvb & Xh;
                if (b == WL) {
                    score += static_cast<u32>((Ph >> scoreShift) & 1);
                    score -= static_cast<u32>((Mh >> scoreShift) & 1);
                }
                const int hout = static_cast<int>((Ph >> 63) & 1) -
                                 static_cast<int>((Mh >> 63) & 1);
                Ph = (Ph << 1) | (hin > 0 ? u64{1} : u64{0});
                Mh = (Mh << 1) | hinNeg;
                Pv[b] = Mh | ~(Xv | Ph);
                Mv[b] = Ph & Xv;
                hin = hout;
            }
            if (fitting) {
                best = std::min(best, score);
            } else if (cutoff != kNoCutoff &&
                       static_cast<u64>(score) >
                           static_cast<u64>(cutoff) + (n - (j + 1))) {
                // The last-row score drops by at most 1 per remaining
                // column, so the final distance provably exceeds cutoff.
                return cutoff + 1;
            }
        }
    }
    return fitting ? best : score;
}

} // namespace

u32
editDistance(const DnaView &a, const DnaView &b)
{
    // Fewer blocks when the shorter sequence is the pattern.
    const DnaView &pat = a.size() <= b.size() ? a : b;
    const DnaView &text = a.size() <= b.size() ? b : a;
    return myersDistance(pat, text, false, kNoCutoff);
}

u32
editDistanceBounded(const DnaView &a, const DnaView &b, u32 k)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    // Length difference alone exceeds the budget.
    if ((n > m ? n - m : m - n) > k)
        return k + 1;
    u32 d = myersDistance(n <= m ? a : b, n <= m ? b : a, false, k);
    return d <= k ? d : k + 1;
}

u32
candidateEditDistance(const DnaView &read, const DnaView &window, u32 center,
                      u32 slack)
{
    const u32 from = center >= slack ? center - slack : 0;
    const u64 span = read.size() + 2 * static_cast<u64>(slack);
    const u64 to = std::min<u64>(window.size(), from + span);
    const u64 m = to > from ? to - from : 0;
    if (m == 0)
        return static_cast<u32>(read.size());
    return myersDistance(read, window.sub(from, m), true, kNoCutoff);
}

} // namespace filters
} // namespace gpx
