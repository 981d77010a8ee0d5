/**
 * @file
 * Unit tests for CIGAR handling and the affine scoring scheme, including
 * an exact regeneration of paper Table 1 score values.
 */

#include <gtest/gtest.h>

#include "genomics/cigar.hh"
#include "genomics/scoring.hh"

namespace {

using namespace gpx;
using genomics::Cigar;
using genomics::CigarOp;
using genomics::ScoringScheme;

TEST(Cigar, ParseAndToString)
{
    Cigar c = Cigar::parse("42M2I106M");
    EXPECT_EQ(c.toString(), "42M2I106M");
    EXPECT_EQ(c.elems().size(), 3u);
}

TEST(Cigar, PushMergesAdjacentOps)
{
    Cigar c;
    c.push(CigarOp::Match, 10);
    c.push(CigarOp::Match, 5);
    c.push(CigarOp::Deletion, 2);
    EXPECT_EQ(c.toString(), "15M2D");
}

TEST(Cigar, PushIgnoresZeroLength)
{
    Cigar c;
    c.push(CigarOp::Match, 0);
    EXPECT_TRUE(c.empty());
}

TEST(Cigar, SpansAccounting)
{
    Cigar c = Cigar::parse("50M2I48M3D50M");
    EXPECT_EQ(c.querySpan(), 150u);
    EXPECT_EQ(c.refSpan(), 151u);
    EXPECT_EQ(c.insertedBases(), 2u);
    EXPECT_EQ(c.deletedBases(), 3u);
}

TEST(Cigar, SoftClipConsumesQueryOnly)
{
    Cigar c = Cigar::parse("5S100M");
    EXPECT_EQ(c.querySpan(), 105u);
    EXPECT_EQ(c.refSpan(), 100u);
}

TEST(Scoring, PerfectScoreIs300For150bp)
{
    ScoringScheme s = ScoringScheme::shortRead();
    EXPECT_EQ(s.perfectScore(150), 300);
}

TEST(Scoring, GapCostTwoPiece)
{
    ScoringScheme s = ScoringScheme::shortRead();
    EXPECT_EQ(s.gapCost(0), 0);
    EXPECT_EQ(s.gapCost(1), 14);  // 12 + 2
    EXPECT_EQ(s.gapCost(5), 22);  // 12 + 10
    EXPECT_EQ(s.gapCost(20), 52); // min(52, 52): crossover point
    EXPECT_EQ(s.gapCost(40), 72); // second piece: 32 + 40
}

/**
 * Paper Table 1: alignment scores of all single-edit variations of a
 * 150 bp read under the Minimap2 sr scoring scheme.
 */
struct EditCase
{
    const char *label;
    u32 matches;
    u32 mismatches;
    u32 gap; ///< length of the one gap run (0: none)
    u32 insertedBases; ///< reduces matching read bases
    i32 expected;
};

class Table1Scores : public ::testing::TestWithParam<EditCase>
{
};

TEST_P(Table1Scores, MatchesPaper)
{
    const EditCase &c = GetParam();
    ScoringScheme s = ScoringScheme::shortRead();
    EXPECT_EQ(s.scoreFromCounts(c.matches, c.mismatches, c.gap),
              c.expected)
        << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Table1Scores,
    ::testing::Values(
        EditCase{ "None", 150, 0, 0, 0, 300 },
        EditCase{ "1 Mismatch", 149, 1, 0, 0, 290 },
        EditCase{ "1 Deletion", 150, 0, 1, 0, 286 },
        EditCase{ "1 Insertion", 149, 0, 1, 1, 284 },
        EditCase{ "2 Consecutive Deletions", 150, 0, 2, 0, 284 },
        EditCase{ "3 Consecutive Deletions", 150, 0, 3, 0, 282 },
        EditCase{ "2 Mismatches", 148, 2, 0, 0, 280 },
        EditCase{ "2 Consecutive Insertions", 148, 0, 2, 2, 280 },
        EditCase{ "4 Consecutive Deletions", 150, 0, 4, 0, 280 },
        EditCase{ "5 Consecutive Deletions", 150, 0, 5, 0, 278 },
        EditCase{ "1 Mismatch + 1 Deletion", 149, 1, 1, 0, 276 }),
    [](const auto &test_info) {
        std::string name = test_info.param.label;
        for (auto &ch : name) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

TEST(Scoring, ScoreAlignmentSplitsMatchRuns)
{
    ScoringScheme s = ScoringScheme::shortRead();
    genomics::DnaSequence read("ACGTACGT");
    genomics::DnaSequence ref("ACGAACGT"); // one mismatch at index 3
    Cigar c = Cigar::parse("8M");
    EXPECT_EQ(s.scoreAlignment(read, ref, c), 7 * 2 - 8);
}

TEST(Scoring, ScoreAlignmentWithGap)
{
    ScoringScheme s = ScoringScheme::shortRead();
    genomics::DnaSequence read("ACGTACGT");
    genomics::DnaSequence ref("ACGTTTACGT"); // 2 extra ref bases
    Cigar c = Cigar::parse("4M2D4M");
    EXPECT_EQ(s.scoreAlignment(read, ref, c), 8 * 2 - 16);
}

} // namespace
