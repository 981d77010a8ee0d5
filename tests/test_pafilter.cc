/**
 * @file
 * Unit and property tests for SeedMap query merging and the
 * Paired-Adjacency filter. The query's on-the-fly three-way merge is
 * pinned against the concatenate + sort + unique oracle below.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "genpair/pafilter.hh"
#include "genpair/seedmap.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using genpair::CandidatePair;
using genpair::pairedAdjacencyFilter;
using genpair::QueryWork;

/**
 * Oracle of queryCandidatesInto(): concatenate the read starts of the
 * three lists (locations below the seed's offset dropped), then sort
 * and deduplicate.
 */
std::vector<GlobalPos>
sortUniqueOracle(const genpair::SeedMapView &map,
                 const genpair::ReadSeeds &seeds, QueryWork &work)
{
    std::vector<GlobalPos> out;
    for (const genpair::Seed &seed : seeds) {
        ++work.seedLookups;
        auto span = map.lookup(seed.hash);
        work.locationsFetched += span.size();
        for (u32 loc : span) {
            if (loc >= seed.offsetInRead)
                out.push_back(loc - seed.offsetInRead);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/**
 * A four-bucket SeedMap view over hand-made sorted location lists:
 * bucket b holds lists[b], so seed hash b looks it up.
 */
struct ListMap
{
    std::array<std::vector<u32>, 4> lists;
    std::vector<u32> seedTable;
    std::vector<u32> locations;

    genpair::SeedMapView
    view()
    {
        seedTable.assign(1, 0);
        locations.clear();
        for (auto &list : lists) {
            std::sort(list.begin(), list.end());
            locations.insert(locations.end(), list.begin(), list.end());
            seedTable.push_back(static_cast<u32>(locations.size()));
        }
        return genpair::SeedMapView(genpair::SeedMapParams{}, 2,
                                    seedTable, locations);
    }
};

/** queryCandidatesInto() (appending after @p prefix) vs the oracle. */
void
expectMatchesOracle(const genpair::SeedMapView &map,
                    const genpair::ReadSeeds &seeds)
{
    QueryWork wantWork;
    const std::vector<GlobalPos> want =
        sortUniqueOracle(map, seeds, wantWork);

    QueryWork gotWork;
    const std::vector<GlobalPos> prefix = { 7, 3, 5 };
    std::vector<GlobalPos> got = prefix;
    const std::size_t added =
        genpair::queryCandidatesInto(map, seeds, gotWork, got);
    ASSERT_EQ(added, want.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), got.begin()));
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           got.begin() + prefix.size()));
    EXPECT_EQ(gotWork.seedLookups, wantWork.seedLookups);
    EXPECT_EQ(gotWork.locationsFetched, wantWork.locationsFetched);
    EXPECT_EQ(genpair::queryCandidates(map, seeds, gotWork), want);
}

TEST(PaFilter, EmptyInputs)
{
    QueryWork w;
    EXPECT_TRUE(pairedAdjacencyFilter({}, {}, 500, w).empty());
    EXPECT_TRUE(pairedAdjacencyFilter({ 1, 2 }, {}, 500, w).empty());
    EXPECT_TRUE(pairedAdjacencyFilter({}, { 1, 2 }, 500, w).empty());
}

TEST(PaFilter, KeepsPairsWithinDelta)
{
    QueryWork w;
    std::vector<GlobalPos> left = { 1000 };
    std::vector<GlobalPos> right = { 1200 };
    auto out = pairedAdjacencyFilter(left, right, 500, w);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].leftStart, 1000u);
    EXPECT_EQ(out[0].rightStart, 1200u);
}

TEST(PaFilter, RejectsBeyondDelta)
{
    QueryWork w;
    EXPECT_TRUE(pairedAdjacencyFilter({ 1000 }, { 1600 }, 500, w).empty());
}

TEST(PaFilter, RejectsWrongOrder)
{
    QueryWork w;
    // Right read upstream of left read violates FR ordering.
    EXPECT_TRUE(pairedAdjacencyFilter({ 1000 }, { 800 }, 500, w).empty());
}

TEST(PaFilter, ZeroDistanceAllowed)
{
    QueryWork w;
    auto out = pairedAdjacencyFilter({ 1000 }, { 1000 }, 500, w);
    EXPECT_EQ(out.size(), 1u);
}

TEST(PaFilter, EmitsAllCombinationsInWindow)
{
    QueryWork w;
    std::vector<GlobalPos> left = { 100, 150 };
    std::vector<GlobalPos> right = { 120, 180, 900 };
    auto out = pairedAdjacencyFilter(left, right, 100, w);
    // (100,120), (100,180), (150,180) -- not (150,120) (order), not 900.
    EXPECT_EQ(out.size(), 3u);
}

TEST(PaFilter, CountsIterations)
{
    QueryWork w;
    std::vector<GlobalPos> left = { 100, 200, 300 };
    std::vector<GlobalPos> right = { 150, 250, 350 };
    pairedAdjacencyFilter(left, right, 100, w);
    EXPECT_GT(w.filterIterations, 0u);
}

/** Property test: matches a brute-force quadratic reference. */
class PaFilterProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PaFilterProperty, MatchesBruteForce)
{
    util::Pcg32 rng(GetParam() * 101 + 13);
    u32 delta = 200 + rng.below(400);
    std::vector<GlobalPos> left, right;
    for (u32 i = 0, n = rng.below(40); i < n; ++i)
        left.push_back(rng.below(10000));
    for (u32 i = 0, n = rng.below(40); i < n; ++i)
        right.push_back(rng.below(10000));
    std::sort(left.begin(), left.end());
    std::sort(right.begin(), right.end());
    left.erase(std::unique(left.begin(), left.end()), left.end());
    right.erase(std::unique(right.begin(), right.end()), right.end());

    QueryWork w;
    auto fast = pairedAdjacencyFilter(left, right, delta, w);

    std::vector<CandidatePair> brute;
    for (GlobalPos l : left) {
        for (GlobalPos r : right) {
            if (r >= l && r - l <= delta)
                brute.push_back({ l, r });
        }
    }
    ASSERT_EQ(fast.size(), brute.size());
    auto key = [](const CandidatePair &c) {
        return std::pair<GlobalPos, GlobalPos>(c.leftStart, c.rightStart);
    };
    auto cmp = [&](const CandidatePair &a, const CandidatePair &b) {
        return key(a) < key(b);
    };
    std::sort(fast.begin(), fast.end(), cmp);
    std::sort(brute.begin(), brute.end(), cmp);
    for (std::size_t i = 0; i < fast.size(); ++i)
        EXPECT_EQ(key(fast[i]), key(brute[i]));
}

INSTANTIATE_TEST_SUITE_P(Random, PaFilterProperty,
                         ::testing::Range(0, 20));

TEST(QueryMerge, EdgeListsMatchOracle)
{
    ListMap lm;
    lm.lists[0] = { 0, 10, 49, 50, 51, 300 };
    lm.lists[1] = { 60, 110, 350 };
    lm.lists[2] = { 100, 150, 200 };
    // bucket 3 stays empty
    const genpair::SeedMapView map = lm.view();
    // Seeds as (hash, offset in read) triples.
    auto query = [&](u32 h0, u32 o0, u32 h1, u32 o1, u32 h2, u32 o2) {
        expectMatchesOracle(
            map, genpair::ReadSeeds{ { { h0, o0 }, { h1, o1 }, { h2, o2 } } });
    };
    // Read starts 0, 10, 50 and 300 each come from two lists.
    query(0, 0, 1, 50, 2, 100);
    // Locations below the offset are dropped, an exact hit at it kept.
    query(0, 50, 1, 110, 2, 151);
    // Empty lists, alone and mixed.
    query(3, 0, 3, 50, 3, 100);
    query(3, 0, 2, 50, 3, 100);
    // A single list, queried three times at one offset: every location
    // duplicates across all three cursors.
    query(0, 10, 0, 10, 0, 10);
    // Every location below its offset.
    query(1, 400, 2, 201, 0, 301);
}

class QueryMergeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(QueryMergeProperty, MatchesSortUniqueOracle)
{
    util::Pcg32 rng(GetParam() * 7919 + 3);
    ListMap lm;
    // Small value ranges so lists collide after the offset shift.
    const u32 range = 20 + rng.below(400);
    for (auto &list : lm.lists) {
        const u32 len = rng.below(4) == 0 ? 0 : rng.below(30);
        for (u32 i = 0; i < len; ++i)
            list.push_back(rng.below(range));
        std::sort(list.begin(), list.end());
        // Locations of one seed are distinct in a real Location Table.
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    const genpair::SeedMapView map = lm.view();
    for (int q = 0; q < 20; ++q) {
        genpair::ReadSeeds seeds;
        for (genpair::Seed &seed : seeds) {
            seed.hash = rng.below(4);
            seed.offsetInRead = rng.below(3) == 0 ? 0 : rng.below(range);
        }
        expectMatchesOracle(map, seeds);
    }
}

INSTANTIATE_TEST_SUITE_P(Random, QueryMergeProperty,
                         ::testing::Range(0, 50));

} // namespace
