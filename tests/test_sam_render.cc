/**
 * @file
 * SAM renderer tests: SamWriter's to_chars renderer against a scalar
 * std::ostream oracle (the writer's former record path, kept here),
 * byte for byte, on edge records and on randomized ones; and rendering
 * from several threads through one const writer.
 */

#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "genomics/sam.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using genomics::Cigar;
using genomics::CigarOp;
using genomics::ChromPos;
using genomics::DnaSequence;
using genomics::Mapping;
using genomics::PairMapping;
using genomics::Read;
using genomics::ReadPair;
using genomics::Reference;
using genomics::SamWriter;

/**
 * The std::ostream oracle: one record per call, building RNAME, CIGAR
 * and SEQ as temporary strings (the reverse-complement copy included).
 */
namespace oracle {

void
writeRecord(std::ostream &os, const Reference &ref, const Read &read,
            const Mapping &mapping, u32 flags, const Mapping *mate,
            i64 tlen)
{
    std::string rname = "*";
    u64 pos1 = 0;
    std::string cigar = "*";
    if (mapping.mapped) {
        ChromPos cp = ref.toChromPos(mapping.pos);
        rname = ref.name(cp.chrom);
        pos1 = cp.offset + 1;
        cigar = mapping.cigar.empty() ? "*" : mapping.cigar.toString();
        if (mapping.reverse)
            flags |= genomics::kSamReverse;
    } else {
        flags |= genomics::kSamUnmapped;
    }

    std::string rnext = "*";
    u64 pnext = 0;
    if (mate) {
        if (mate->mapped) {
            ChromPos mcp = ref.toChromPos(mate->pos);
            rnext = ref.name(mcp.chrom) == rname ? "="
                                                 : ref.name(mcp.chrom);
            pnext = mcp.offset + 1;
            if (mate->reverse)
                flags |= genomics::kSamMateReverse;
        } else {
            flags |= genomics::kSamMateUnmapped;
        }
    }

    std::string seq = mapping.mapped && mapping.reverse
                          ? read.seq.revComp().toString()
                          : read.seq.toString();
    if (seq.empty())
        seq = "*";
    u8 mapq = mapping.mapped ? 60 : 0;

    os << read.name << '\t' << flags << '\t' << rname << '\t' << pos1
       << '\t' << static_cast<u32>(mapq) << '\t' << cigar << '\t'
       << rnext << '\t' << pnext << '\t' << tlen << '\t' << seq << '\t'
       << '*' << "\tAS:i:" << mapping.score << '\n';
}

void
writePair(std::ostream &os, const Reference &ref, u32 max_proper_insert,
          const ReadPair &pair, const PairMapping &mapping)
{
    u32 f1 = genomics::kSamPaired | genomics::kSamFirstInPair;
    u32 f2 = genomics::kSamPaired | genomics::kSamSecondInPair;

    i64 tlen = 0;
    bool proper = false;
    if (mapping.bothMapped() &&
        mapping.first.reverse != mapping.second.reverse) {
        const Mapping &left = mapping.first.reverse ? mapping.second
                                                    : mapping.first;
        const Mapping &right = mapping.first.reverse ? mapping.first
                                                     : mapping.second;
        if (right.pos >= left.pos) {
            u64 span = right.pos + right.cigar.refSpan() - left.pos;
            if (span <= max_proper_insert) {
                proper = true;
                tlen = static_cast<i64>(span);
            }
        }
    }
    if (proper) {
        f1 |= genomics::kSamProperPair;
        f2 |= genomics::kSamProperPair;
    }
    i64 tlen1 = mapping.first.reverse ? -tlen : tlen;
    i64 tlen2 = mapping.second.reverse ? -tlen : tlen;

    writeRecord(os, ref, pair.first, mapping.first, f1, &mapping.second,
                tlen1);
    writeRecord(os, ref, pair.second, mapping.second, f2, &mapping.first,
                tlen2);
}

std::string
header(const Reference &ref)
{
    std::ostringstream os;
    os << "@HD\tVN:1.6\tSO:unknown\n";
    for (u32 c = 0; c < ref.numChromosomes(); ++c)
        os << "@SQ\tSN:" << ref.name(c) << "\tLN:" << ref.chromosomeLength(c)
           << '\n';
    os << "@PG\tID:genpairx\tPN:genpairx\tVN:1.0\n";
    return os.str();
}

} // namespace oracle

constexpr u32 kMaxProperInsert = 1200;

DnaSequence
randomSeq(util::Pcg32 &rng, std::size_t n)
{
    std::string s;
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(genomics::baseToChar(static_cast<u8>(rng.below(4))));
    return DnaSequence(s);
}

class SamRenderTest : public ::testing::Test
{
  protected:
    SamRenderTest()
    {
        util::Pcg32 rng(7);
        ref_.addChromosome("chrA", randomSeq(rng, 5000));
        ref_.addChromosome("chrB_longer_name", randomSeq(rng, 3000));
        ref_.addChromosome("chrC", randomSeq(rng, 100));
    }

    /** Mapped at (chrom, offset) with a full-length match CIGAR. */
    Mapping
    mappedAt(u32 chrom, u64 offset, bool reverse, std::size_t len,
             i32 score = 300) const
    {
        Mapping m;
        m.mapped = true;
        m.pos = ref_.toGlobal(chrom, offset);
        m.reverse = reverse;
        m.score = score;
        m.cigar.push(CigarOp::Match, static_cast<u32>(len));
        return m;
    }

    ReadPair
    pairOf(const std::string &name, std::size_t len1, std::size_t len2)
    {
        ReadPair pair;
        pair.first.name = name + "/1";
        pair.first.seq = randomSeq(rng_, len1);
        pair.second.name = name + "/2";
        pair.second.seq = randomSeq(rng_, len2);
        return pair;
    }

    /** Renderer output and the oracle's for one pair must agree. */
    void
    expectPairMatchesOracle(const ReadPair &pair, const PairMapping &pm)
    {
        std::ostringstream expected;
        oracle::writePair(expected, ref_, kMaxProperInsert, pair, pm);

        std::ostringstream sink;
        SamWriter writer(sink, ref_, kMaxProperInsert);
        std::string rendered;
        writer.renderPairs(rendered, &pair, &pm, 1);
        EXPECT_EQ(rendered, expected.str());

        // The committing wrappers emit the same bytes and count them.
        writer.writePair(pair, pm);
        EXPECT_EQ(sink.str(), expected.str());
        EXPECT_EQ(writer.recordsWritten(), 2u);
        EXPECT_EQ(writer.bytesWritten(), expected.str().size());
    }

    Reference ref_;
    util::Pcg32 rng_{ 11 };
};

TEST_F(SamRenderTest, HeaderMatchesOracle)
{
    std::ostringstream os;
    SamWriter writer(os, ref_);
    writer.writeHeader();
    EXPECT_EQ(os.str(), oracle::header(ref_));
    EXPECT_EQ(writer.recordsWritten(), 0u);
    EXPECT_EQ(writer.bytesWritten(), os.str().size());
}

TEST_F(SamRenderTest, ProperPairMatchesOracle)
{
    ReadPair pair = pairOf("proper", 150, 150);
    PairMapping pm;
    pm.first = mappedAt(0, 100, false, 150);
    pm.second = mappedAt(0, 400, true, 150, 290);
    expectPairMatchesOracle(pair, pm);
}

TEST_F(SamRenderTest, OneMateUnmappedMatchesOracle)
{
    ReadPair pair = pairOf("half", 150, 150);
    PairMapping pm;
    pm.first = mappedAt(1, 2000, true, 150);
    expectPairMatchesOracle(pair, pm);
    std::swap(pm.first, pm.second);
    expectPairMatchesOracle(pair, pm);
}

TEST_F(SamRenderTest, BothMatesUnmappedMatchesOracle)
{
    ReadPair pair = pairOf("none", 150, 149);
    PairMapping pm;
    // An unmapped read keeps its stored orientation even if a stale
    // reverse bit is set.
    pm.first.reverse = true;
    pm.first.score = -12;
    expectPairMatchesOracle(pair, pm);
}

TEST_F(SamRenderTest, MatesOnDifferentChromosomesNameRnext)
{
    ReadPair pair = pairOf("split", 150, 150);
    PairMapping pm;
    pm.first = mappedAt(0, 4000, false, 150);
    pm.second = mappedAt(1, 10, true, 150);
    expectPairMatchesOracle(pair, pm);

    std::ostringstream sink;
    std::string rendered;
    SamWriter(sink, ref_).renderPairs(rendered, &pair, &pm, 1);
    EXPECT_NE(rendered.find("\tchrB_longer_name\t11\t"), std::string::npos)
        << rendered;
    EXPECT_NE(rendered.find("\tchrA\t4001\t"), std::string::npos)
        << rendered;
}

TEST_F(SamRenderTest, ReverseStrandSeqIsReverseComplemented)
{
    // Lengths around the 32-base word edges of the packed decoder.
    for (std::size_t len : { 1, 31, 32, 33, 63, 64, 65, 150, 301 }) {
        ReadPair pair = pairOf("rev" + std::to_string(len), len, len);
        PairMapping pm;
        pm.first = mappedAt(0, 1000, true, len);
        pm.second = mappedAt(0, 1200, true, len);
        expectPairMatchesOracle(pair, pm);
    }
}

TEST_F(SamRenderTest, MappedRecordWithEmptyCigarPrintsStar)
{
    ReadPair pair = pairOf("nocigar", 150, 150);
    PairMapping pm;
    pm.first = mappedAt(0, 100, false, 150);
    pm.first.cigar = Cigar();
    pm.second = mappedAt(0, 300, true, 150);
    expectPairMatchesOracle(pair, pm);
}

TEST_F(SamRenderTest, ImproperPairAndNegativeTlen)
{
    ReadPair pair = pairOf("wide", 150, 150);
    PairMapping pm;
    // Inside the bound: proper, TLEN +/- the span.
    pm.first = mappedAt(0, 2000, true, 150);
    pm.second = mappedAt(0, 1500, false, 150);
    expectPairMatchesOracle(pair, pm);
    // Just beyond maxProperInsert: improper, TLEN 0.
    pm.second = mappedAt(0, 2150 - kMaxProperInsert - 1, false, 150);
    expectPairMatchesOracle(pair, pm);
    // Same strand: never proper.
    pm.second = mappedAt(0, 1900, true, 150);
    expectPairMatchesOracle(pair, pm);
}

TEST_F(SamRenderTest, NegativeAndExtremeScores)
{
    ReadPair pair = pairOf("score", 150, 150);
    PairMapping pm;
    pm.first = mappedAt(0, 100, false, 150, -37);
    pm.second = mappedAt(0, 300, true, 150, std::numeric_limits<i32>::min());
    expectPairMatchesOracle(pair, pm);
    pm.second.score = std::numeric_limits<i32>::max();
    expectPairMatchesOracle(pair, pm);
}

TEST_F(SamRenderTest, LastChromosomeAndIndelCigars)
{
    ReadPair pair = pairOf("indel", 60, 40);
    PairMapping pm;
    pm.first = mappedAt(2, 0, false, 60);
    pm.first.cigar = Cigar();
    pm.first.cigar.push(CigarOp::SoftClip, 3);
    pm.first.cigar.push(CigarOp::Match, 20);
    pm.first.cigar.push(CigarOp::Insertion, 2);
    pm.first.cigar.push(CigarOp::Deletion, 1000000);
    pm.first.cigar.push(CigarOp::Equal, 30);
    pm.first.cigar.push(CigarOp::Diff, 5);
    pm.second = mappedAt(2, 59, true, 40);
    expectPairMatchesOracle(pair, pm);
}

TEST_F(SamRenderTest, LongReadRecordMatchesOracle)
{
    for (bool reverse : { false, true }) {
        Read read;
        read.name = reverse ? "long_rev" : "long_fwd";
        read.seq = randomSeq(rng_, 10007);
        Mapping m = mappedAt(0, 10, reverse, 4000, 9000);
        m.cigar.push(CigarOp::Deletion, 7);
        m.cigar.push(CigarOp::Match, 6007);

        std::ostringstream expected;
        oracle::writeRecord(expected, ref_, read, m, 0, nullptr, 0);
        std::ostringstream os;
        SamWriter writer(os, ref_);
        std::string rendered;
        writer.renderRead(rendered, read, m);
        EXPECT_EQ(rendered, expected.str());
        writer.writeRead(read, m);
        EXPECT_EQ(os.str(), expected.str());
        EXPECT_EQ(writer.recordsWritten(), 1u);

        // And unmapped.
        std::ostringstream expectedUnmapped;
        oracle::writeRecord(expectedUnmapped, ref_, read, Mapping{}, 0,
                            nullptr, 0);
        std::string unmapped;
        writer.renderRead(unmapped, read, Mapping{});
        EXPECT_EQ(unmapped, expectedUnmapped.str());
    }
}

/** Random pairs over every field's range: the renderer's fuzz wall. */
class RandomPairs
{
  public:
    RandomPairs(const Reference &ref, u64 seed, std::size_t n)
    {
        util::Pcg32 rng(seed);
        for (std::size_t i = 0; i < n; ++i) {
            ReadPair pair;
            pair.first.name = "r" + std::to_string(rng.next());
            pair.second.name = pair.first.name + "_mate";
            pair.first.seq = randomSeq(rng, rng.below(260));
            pair.second.seq = randomSeq(rng, rng.below(260));
            PairMapping pm;
            pm.first = randomMapping(ref, rng);
            pm.second = randomMapping(ref, rng);
            // Keep some mates near each other so proper pairs occur.
            if (pm.first.mapped && pm.second.mapped && rng.below(2) == 0 &&
                pm.first.pos + 600 < ref.totalLength()) {
                pm.second.pos = pm.first.pos + rng.below(600);
                pm.second.reverse = !pm.first.reverse;
            }
            pairs.push_back(std::move(pair));
            mappings.push_back(std::move(pm));
        }
    }

    std::vector<ReadPair> pairs;
    std::vector<PairMapping> mappings;

  private:
    static Mapping
    randomMapping(const Reference &ref, util::Pcg32 &rng)
    {
        Mapping m;
        m.mapped = rng.below(5) != 0;
        m.reverse = rng.below(2) != 0;
        m.score = static_cast<i32>(rng.next());
        if (m.mapped) {
            m.pos = rng.below(static_cast<u32>(ref.totalLength()));
            const u32 elems = rng.below(6);
            for (u32 e = 0; e < elems; ++e)
                m.cigar.push(static_cast<CigarOp>(rng.below(6)),
                             1 + rng.below(e == 0 ? 200 : 5));
        }
        return m;
    }
};

TEST_F(SamRenderTest, RandomPairsMatchOracle)
{
    RandomPairs input(ref_, 3, 2000);
    std::ostringstream expected;
    for (std::size_t i = 0; i < input.pairs.size(); ++i)
        oracle::writePair(expected, ref_, kMaxProperInsert, input.pairs[i],
                          input.mappings[i]);

    std::ostringstream os;
    SamWriter writer(os, ref_, kMaxProperInsert);
    writer.writePairBatch(input.pairs.data(), input.mappings.data(),
                          input.pairs.size());
    EXPECT_EQ(os.str(), expected.str());
    EXPECT_EQ(writer.recordsWritten(), 2 * input.pairs.size());
    EXPECT_EQ(writer.bytesWritten(), expected.str().size());

    // Appending never disturbs what the string already holds.
    std::string appended = "prefix\n";
    writer.renderPairs(appended, input.pairs.data(), input.mappings.data(),
                       input.pairs.size());
    EXPECT_EQ(appended, "prefix\n" + expected.str());
}

TEST_F(SamRenderTest, ThreadsRenderDisjointSlicesThroughOneConstWriter)
{
    RandomPairs input(ref_, 5, 4096);
    std::ostringstream os;
    SamWriter writer(os, ref_, kMaxProperInsert);
    std::string serial;
    writer.renderPairs(serial, input.pairs.data(), input.mappings.data(),
                       input.pairs.size());

    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kSlice = 97; // uneven slices, many per thread
    const std::size_t slices = (input.pairs.size() + kSlice - 1) / kSlice;
    std::vector<std::string> parts(slices);
    const SamWriter &renderer = writer;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (std::size_t s = t; s < slices; s += kThreads) {
                const std::size_t begin = s * kSlice;
                const std::size_t n =
                    std::min(kSlice, input.pairs.size() - begin);
                renderer.renderPairs(parts[s], input.pairs.data() + begin,
                                     input.mappings.data() + begin, n);
            }
        });
    }
    // The committing side runs concurrently with the renderers, as the
    // streaming writer thread does.
    writer.writeHeader();
    for (auto &th : threads)
        th.join();

    std::string joined;
    for (const auto &part : parts)
        joined += part;
    EXPECT_EQ(joined, serial);

    for (auto &part : parts) {
        genomics::SamBlock block;
        block.bytes = std::move(part);
        writer.commit(block);
    }
    EXPECT_EQ(os.str(), oracle::header(ref_) + serial);
    EXPECT_EQ(writer.bytesWritten(), os.str().size());
}

} // namespace
