/**
 * @file
 * The original per-base minimizer extraction (a std::deque monotonic
 * queue over one base at a time), the oracle of
 * baseline::extractMinimizers(), which rolls its hashes over packed
 * words and must produce an identical stream.
 */

#include <deque>

#include "oracles/oracles.hh"
#include "util/logging.hh"

namespace gpx {
namespace baseline {

namespace {

/** The k-mer mix of extractMinimizers() (Minimap2's hash64). */
u64
mixHash(u64 key, u64 mask)
{
    key = (~key + (key << 21)) & mask;
    key = key ^ (key >> 24);
    key = ((key + (key << 3)) + (key << 8)) & mask;
    key = key ^ (key >> 14);
    key = ((key + (key << 2)) + (key << 4)) & mask;
    key = key ^ (key >> 28);
    key = (key + (key << 31)) & mask;
    return key;
}

} // namespace

std::vector<Minimizer>
extractMinimizersScalar(const genomics::DnaView &seq,
                        const MinimizerParams &params)
{
    std::vector<Minimizer> out;
    const u32 k = params.k;
    const u32 w = params.w;
    if (seq.size() < k)
        return out;
    gpx_assert(k >= 4 && k <= 31, "k must be in [4,31]");

    const u64 mask = (u64{1} << (2 * k)) - 1;
    u64 fwd = 0, rev = 0;

    struct Cand
    {
        u64 hash;
        u64 pos;
        bool reverse;
    };
    std::deque<Cand> window;
    u64 lastEmittedPos = ~u64{0};

    for (std::size_t i = 0; i < seq.size(); ++i) {
        u8 b = seq.at(i);
        fwd = ((fwd << 2) | b) & mask;
        rev = (rev >> 2) | (static_cast<u64>(genomics::complementBase(b))
                            << (2 * (k - 1)));
        if (i + 1 < k)
            continue;
        u64 pos = i + 1 - k;
        // Canonical k-mer; skip palindromic ties to stay strand-neutral.
        if (fwd == rev)
            continue;
        bool reverse = rev < fwd;
        u64 canon = reverse ? rev : fwd;
        Cand c{ mixHash(canon, mask), pos, reverse };

        while (!window.empty() && window.back().hash >= c.hash)
            window.pop_back();
        window.push_back(c);
        while (window.front().pos + w <= pos)
            window.pop_front();

        if (pos + 1 >= w || i + 1 == seq.size()) {
            const Cand &m = window.front();
            if (m.pos != lastEmittedPos) {
                out.push_back({ m.hash, m.pos, m.reverse });
                lastEmittedPos = m.pos;
            }
        }
    }
    return out;
}

} // namespace baseline
} // namespace gpx
