/**
 * @file
 * The original O(n*m) unit-cost edit-distance DPs, kept cell for cell
 * as the ground truth of the bit-parallel kernels in
 * filters/edit_distance.hh: the randomized property tests and the
 * filter-soundness tests validate against them (a lower-bounding
 * filter must never report an estimate above the true distance).
 */

#include <algorithm>
#include <vector>

#include "oracles/oracles.hh"

namespace gpx {
namespace filters {

using genomics::DnaView;

u32
editDistanceScalar(const DnaView &a, const DnaView &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    std::vector<u32> row(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        row[j] = static_cast<u32>(j);
    for (std::size_t i = 1; i <= n; ++i) {
        u32 diag = row[0];
        row[0] = static_cast<u32>(i);
        for (std::size_t j = 1; j <= m; ++j) {
            u32 up = row[j];
            u32 sub = diag + (a.at(i - 1) == b.at(j - 1) ? 0 : 1);
            row[j] = std::min({ sub, up + 1, row[j - 1] + 1 });
            diag = up;
        }
    }
    return row[m];
}

u32
editDistanceBoundedScalar(const DnaView &a, const DnaView &b, u32 k)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    const u32 over = k + 1;
    // Length difference alone exceeds the budget.
    if ((n > m ? n - m : m - n) > k)
        return over;
    // Band of half-width k around the main diagonal, offset by the
    // length difference so the end cell stays in band.
    const i64 band = static_cast<i64>(k);
    std::vector<u32> row(m + 1, over);
    std::vector<u32> prev(m + 1, over);
    for (std::size_t j = 0; j <= std::min<std::size_t>(m, k); ++j)
        prev[j] = static_cast<u32>(j);
    for (std::size_t i = 1; i <= n; ++i) {
        std::fill(row.begin(), row.end(), over);
        const i64 lo = std::max<i64>(1, static_cast<i64>(i) - band);
        const i64 hi =
            std::min<i64>(static_cast<i64>(m), static_cast<i64>(i) + band);
        if (static_cast<i64>(i) - band <= 0)
            row[0] = static_cast<u32>(i);
        for (i64 j = lo; j <= hi; ++j) {
            u32 sub = prev[j - 1] +
                      (a.at(i - 1) == b.at(j - 1) ? 0 : 1);
            u32 del = prev[j] == over ? over : prev[j] + 1;
            u32 ins = row[j - 1] == over ? over : row[j - 1] + 1;
            row[j] = std::min({ sub, del, ins, over });
        }
        std::swap(row, prev);
    }
    return std::min(prev[m], over);
}

u32
candidateEditDistanceScalar(const DnaView &read, const DnaView &window,
                            u32 center, u32 slack)
{
    // Semi-global (fitting) DP over the window region the candidate can
    // legally occupy: free target prefix and suffix, read consumed
    // end to end.
    const u32 from = center >= slack ? center - slack : 0;
    const u64 span = read.size() + 2 * static_cast<u64>(slack);
    const u64 to = std::min<u64>(window.size(), from + span);
    const std::size_t n = read.size();
    const std::size_t m = to > from ? to - from : 0;
    if (m == 0)
        return static_cast<u32>(n);
    std::vector<u32> row(m + 1, 0); // free target prefix
    for (std::size_t i = 1; i <= n; ++i) {
        u32 diag = row[0];
        row[0] = static_cast<u32>(i);
        for (std::size_t j = 1; j <= m; ++j) {
            u32 up = row[j];
            u32 sub =
                diag +
                (read.at(i - 1) == window.at(from + j - 1) ? 0 : 1);
            row[j] = std::min({ sub, up + 1, row[j - 1] + 1 });
            diag = up;
        }
    }
    return *std::min_element(row.begin(), row.end()); // free suffix
}

} // namespace filters
} // namespace gpx
