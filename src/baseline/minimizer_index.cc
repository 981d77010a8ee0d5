#include "baseline/minimizer_index.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"
#include "util/xxhash.hh"

namespace gpx {
namespace baseline {

namespace {

/** Invertible 64-bit mix (Minimap2's hash64) applied to packed k-mers. */
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
extractMinimizers(const genomics::DnaView &seq,
                  const MinimizerParams &params)
{
    std::vector<Minimizer> out;
    extractMinimizers(seq, params, out);
    return out;
}

void
extractMinimizers(const genomics::DnaView &seq,
                  const MinimizerParams &params, std::vector<Minimizer> &out)
{
    out.clear();
    const u32 k = params.k;
    const u32 w = params.w;
    if (seq.size() < k)
        return;
    gpx_assert(k >= 4 && k <= 31, "k must be in [4,31]");
    gpx_assert(w >= 1, "w must be positive");

    const u64 mask = (u64{1} << (2 * k)) - 1;
    u64 fwd = 0, rev = 0;
    // Expected density: roughly 2/(w+1) positions win a window.
    out.reserve(2 * seq.size() / (w + 1) + 16);

    struct Cand
    {
        u64 hash;
        u64 pos;
        bool reverse;
    };
    // Monotonic queue over the sliding window as a fixed-capacity power-
    // of-two ring: positions in the queue span at most w+1 values before
    // the front eviction runs, so no allocation ever happens mid-stream.
    const u32 cap = std::bit_ceil(w + 1u);
    const u32 rmask = cap - 1;
    std::vector<Cand> ring(cap);
    u32 head = 0;
    u32 count = 0;
    u64 lastEmittedPos = ~u64{0};

    // Roll the k-mer hashes directly over the packed words: one 64-bit
    // load yields 32 bases, decoded by shifting a register instead of a
    // per-base packed-byte extraction.
    const std::size_t len = seq.size();
    const std::size_t nw = seq.numWords();
    std::size_t i = 0;
    for (std::size_t wi = 0; wi < nw; ++wi) {
        u64 word = seq.word(wi);
        const std::size_t cnt = std::min<std::size_t>(32, len - 32 * wi);
        for (std::size_t t = 0; t < cnt; ++t, ++i) {
            const u8 b = static_cast<u8>(word & 0x3u);
            word >>= 2;
            fwd = ((fwd << 2) | b) & mask;
            rev = (rev >> 2) |
                  (static_cast<u64>(genomics::complementBase(b))
                   << (2 * (k - 1)));
            if (i + 1 < k)
                continue;
            u64 pos = i + 1 - k;
            // Canonical k-mer; skip palindromic ties to stay
            // strand-neutral.
            if (fwd == rev)
                continue;
            bool reverse = rev < fwd;
            u64 canon = reverse ? rev : fwd;
            Cand c{ mixHash(canon, mask), pos, reverse };

            while (count > 0 &&
                   ring[(head + count - 1) & rmask].hash >= c.hash)
                --count;
            ring[(head + count) & rmask] = c;
            ++count;
            while (ring[head].pos + w <= pos) {
                head = (head + 1) & rmask;
                --count;
            }

            if (pos + 1 >= w || i + 1 == len) {
                const Cand &m = ring[head];
                if (m.pos != lastEmittedPos) {
                    out.push_back({ m.hash, m.pos, m.reverse });
                    lastEmittedPos = m.pos;
                }
            }
        }
    }
}

MinimizerIndex::MinimizerIndex(const genomics::Reference &ref,
                               const MinimizerParams &params)
    : params_(params)
{
    struct Rec
    {
        u64 hash;
        GlobalPos pos;
        bool reverse;
    };
    std::vector<Rec> recs;
    for (u32 c = 0; c < ref.numChromosomes(); ++c) {
        auto mins = extractMinimizers(ref.chromosome(c), params_);
        GlobalPos base = ref.chromosomeStart(c);
        for (const auto &m : mins)
            recs.push_back({ m.hash, base + m.pos, m.reverse });
    }
    std::sort(recs.begin(), recs.end(), [](const Rec &a, const Rec &b) {
        if (a.hash != b.hash)
            return a.hash < b.hash;
        return a.pos < b.pos;
    });

    struct Tables
    {
        std::vector<u64> hashes;
        std::vector<u64> offsets;
        std::vector<Entry> entries;
    };
    auto tables = std::make_shared<Tables>();
    std::size_t i = 0;
    while (i < recs.size()) {
        std::size_t j = i;
        while (j < recs.size() && recs[j].hash == recs[i].hash)
            ++j;
        if (j - i <= params_.maxOccurrences) {
            tables->hashes.push_back(recs[i].hash);
            tables->offsets.push_back(tables->entries.size());
            for (std::size_t t = i; t < j; ++t)
                tables->entries.push_back({ recs[t].pos, recs[t].reverse });
        }
        i = j;
    }
    tables->offsets.push_back(tables->entries.size());
    hashes_ = tables->hashes;
    offsets_ = tables->offsets;
    entries_ = tables->entries;
    backing_ = std::move(tables);
}

MinimizerIndex::MinimizerIndex(const MinimizerParams &params,
                               std::span<const u64> hashes,
                               std::span<const u64> offsets,
                               std::span<const Entry> entries,
                               std::shared_ptr<const void> backing)
    : params_(params), backing_(std::move(backing)), hashes_(hashes),
      offsets_(offsets), entries_(entries)
{
    gpx_assert(offsets_.size() == hashes_.size() + 1,
               "minimizer CSR needs one offset per hash plus a sentinel");
}

std::span<const MinimizerIndex::Entry>
MinimizerIndex::lookup(u64 hash) const
{
    auto it = std::lower_bound(hashes_.begin(), hashes_.end(), hash);
    if (it == hashes_.end() || *it != hash)
        return {};
    std::size_t idx = static_cast<std::size_t>(it - hashes_.begin());
    return { entries_.data() + offsets_[idx],
             entries_.data() + offsets_[idx + 1] };
}

} // namespace baseline
} // namespace gpx
