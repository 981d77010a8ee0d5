#include "genpair/pafilter.hh"

#include <algorithm>

namespace gpx {
namespace genpair {

std::vector<GlobalPos>
queryCandidates(const SeedMapView &map, const ReadSeeds &seeds,
                QueryWork &work)
{
    std::vector<GlobalPos> candidates;
    queryCandidatesInto(map, seeds, work, candidates);
    return candidates;
}

std::size_t
queryCandidatesInto(const SeedMapView &map, const ReadSeeds &seeds,
                    QueryWork &work, std::vector<GlobalPos> &out)
{
    // One cursor per seed over its pre-sorted location list, starting
    // at the first location that leaves a non-negative read start.
    constexpr u64 kDone = ~u64{ 0 };
    const u32 *cur[3];
    const u32 *end[3];
    u32 off[3];
    u64 head[3];
    auto advance = [&](std::size_t s) {
        head[s] = cur[s] == end[s] ? kDone : u64{ *cur[s]++ } - off[s];
    };
    for (std::size_t s = 0; s < 3; ++s) {
        ++work.seedLookups;
        const auto span = map.lookup(seeds[s].hash);
        work.locationsFetched += span.size();
        off[s] = seeds[s].offsetInRead;
        end[s] = span.data() + span.size();
        cur[s] = std::lower_bound(span.data(), end[s], off[s]);
        advance(s);
    }

    // Three-way merge of the read-start lists, dropping duplicates as
    // they meet (paper §4.4).
    const std::size_t start = out.size();
    u64 last = kDone;
    for (;;) {
        const std::size_t s = head[0] <= head[1]
                                  ? (head[0] <= head[2] ? 0 : 2)
                                  : (head[1] <= head[2] ? 1 : 2);
        const u64 v = head[s];
        if (v == kDone)
            break;
        if (v != last)
            out.push_back(last = v);
        advance(s);
    }
    return out.size() - start;
}

std::vector<CandidatePair>
pairedAdjacencyFilter(const std::vector<GlobalPos> &left,
                      const std::vector<GlobalPos> &right, u32 delta,
                      QueryWork &work)
{
    std::vector<CandidatePair> out;
    pairedAdjacencyFilterInto(left.data(), left.size(), right.data(),
                              right.size(), delta, work, out);
    return out;
}

std::size_t
pairedAdjacencyFilterInto(const GlobalPos *left, std::size_t left_count,
                          const GlobalPos *right, std::size_t right_count,
                          u32 delta, QueryWork &work,
                          std::vector<CandidatePair> &out)
{
    const std::size_t start = out.size();
    std::size_t j = 0;
    for (std::size_t i = 0; i < left_count; ++i) {
        // Advance the right cursor to the first candidate >= left[i].
        while (j < right_count && right[j] < left[i]) {
            ++j;
            ++work.filterIterations;
        }
        // Emit every right candidate within the delta window.
        for (std::size_t t = j; t < right_count; ++t) {
            ++work.filterIterations;
            if (right[t] - left[i] > delta)
                break;
            out.push_back({ left[i], right[t] });
        }
    }
    return out.size() - start;
}

} // namespace genpair
} // namespace gpx
