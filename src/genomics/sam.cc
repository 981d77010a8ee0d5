#include "genomics/sam.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <ostream>
#include <string_view>

#include "util/fault.hh"
#include "util/logging.hh"

namespace gpx {
namespace genomics {

SamWriter::SamWriter(std::ostream &os, const Reference &ref,
                     u32 max_proper_insert)
    : os_(os), ref_(ref), maxProperInsert_(max_proper_insert)
{
}

void
SamWriter::checkWrites(std::string label, bool fatal_on_error)
{
    outputLabel_ = std::move(label);
    checkWrites_ = true;
    fatalOnError_ = fatal_on_error;
}

void
SamWriter::commit(const SamBlock &block)
{
    if (writeFailed_)
        return; // latched: drop output, the caller already has the error
    const std::string &bytes = block.bytes;
    if (util::checkFaultBytes("sam.write", bytes.size())) {
        // Simulated ENOSPC/short write: poison the stream the way a
        // real full filesystem would, so the check below and any later
        // flush see the same failed state.
        os_.setstate(std::ios::failbit);
    } else {
        os_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    if (checkWrites_ && !os_) {
        writeFailed_ = true;
        writeError_ = util::detail::cat(
            "SAM write failed at byte offset ", bytesWritten_, " of ",
            outputLabel_.empty() ? "<output>" : outputLabel_,
            " (short write or disk full)");
        if (fatalOnError_)
            gpx_fatal(writeError_);
        return;
    }
    if (os_) {
        bytesWritten_ += bytes.size();
        records_ += block.records;
    }
}

namespace {

/** Decimal digits of any integer field, sign included. */
constexpr std::size_t kMaxIntChars = 20;

/** Bytes of the fixed text around a record's fields, plus slack. */
constexpr std::size_t kRecordSlack = 64;

/** A typical record's bytes beyond QNAME and SEQ (sizing estimate). */
constexpr std::size_t kRecordFieldsEstimate = 56;

/**
 * Headroom past the estimate, so the last record's worst-case bound
 * (see renderRecord) fits without a reallocation.
 */
constexpr std::size_t kBlockSlack = 4096;

template <typename Int>
char *
putInt(char *p, Int v)
{
    return std::to_chars(p, p + kMaxIntChars, v).ptr;
}

char *
putText(char *p, std::string_view s)
{
    std::memcpy(p, s.data(), s.size());
    return p + s.size();
}

/**
 * Decode @p n bases of the packed 2-bit word @p w (base i at bits
 * [2i, 2i+2)) as ASCII.
 */
char *
putBases(char *p, u64 w, std::size_t n)
{
    static constexpr char kAscii[4] = { 'A', 'C', 'G', 'T' };
    for (std::size_t i = 0; i < n; ++i) {
        *p++ = kAscii[w & 0x3u];
        w >>= 2;
    }
    return p;
}

/**
 * SEQ straight from the 2-bit codes: forward, or reverse-complemented
 * one 32-base word at a time (last word first).
 */
char *
putSeq(char *p, const DnaSequence &seq, bool reverse)
{
    const DnaView v(seq);
    const std::size_t words = v.numWords();
    if (!reverse) {
        for (std::size_t w = 0; w < words; ++w)
            p = putBases(p, v.word(w),
                         std::min<std::size_t>(32, v.size() - 32 * w));
        return p;
    }
    for (std::size_t w = words; w-- > 0;) {
        const std::size_t n = std::min<std::size_t>(32, v.size() - 32 * w);
        // revCompWord moves base i to slot 31-i; the word's n bases
        // then sit in the top n slots.
        p = putBases(p, detail::revCompWord(v.word(w)) >> (2 * (32 - n)),
                     n);
    }
    return p;
}

/**
 * Make room for @p bound more bytes at the end of @p out and return
 * where they start; the caller shrinks @p out to what it wrote. Past
 * the caller's size estimate the string grows in 25% steps, not 2x,
 * so a block that outruns its estimate stays close to its size.
 */
char *
grow(std::string &out, std::size_t bound)
{
    const std::size_t used = out.size();
    if (out.capacity() < used + bound)
        out.reserve(std::max(used + bound,
                             out.capacity() + out.capacity() / 4));
    out.resize(used + bound);
    return out.data() + used;
}

} // namespace

void
SamWriter::writeHeader()
{
    SamBlock header;
    std::string &out = header.bytes;
    out += "@HD\tVN:1.6\tSO:unknown\n";
    char len[kMaxIntChars];
    for (u32 c = 0; c < ref_.numChromosomes(); ++c) {
        out += "@SQ\tSN:";
        out += ref_.name(c);
        out += "\tLN:";
        out.append(len, putInt(len, ref_.chromosomeLength(c)));
        out += '\n';
    }
    out += "@PG\tID:genpairx\tPN:genpairx\tVN:1.0\n";
    commit(header);
}

void
SamWriter::renderRecord(std::string &out, const Read &read,
                        const Mapping &mapping, u32 flags,
                        const Mapping *mate, i64 tlen) const
{
    std::string_view rname = "*";
    u64 pos1 = 0;
    std::size_t cigarElems = 0;
    if (mapping.mapped) {
        ChromPos cp = ref_.toChromPos(mapping.pos);
        rname = ref_.name(cp.chrom);
        pos1 = cp.offset + 1; // SAM is 1-based
        cigarElems = mapping.cigar.elems().size();
        if (mapping.reverse)
            flags |= kSamReverse;
    } else {
        flags |= kSamUnmapped;
    }

    std::string_view rnext = "*";
    u64 pnext = 0;
    if (mate) {
        if (mate->mapped) {
            ChromPos mcp = ref_.toChromPos(mate->pos);
            const std::string &mateName = ref_.name(mcp.chrom);
            rnext = mateName == rname ? std::string_view("=") : mateName;
            pnext = mcp.offset + 1;
            if (mate->reverse)
                flags |= kSamMateReverse;
        } else {
            flags |= kSamMateUnmapped;
        }
    }

    const std::size_t bound = read.name.size() + rname.size() +
                              rnext.size() + read.seq.size() +
                              cigarElems * (kMaxIntChars + 1) +
                              7 * kMaxIntChars + kRecordSlack;
    char *const base = grow(out, bound);
    char *p = putText(base, read.name);
    *p++ = '\t';
    p = putInt(p, flags);
    *p++ = '\t';
    p = putText(p, rname);
    *p++ = '\t';
    p = putInt(p, pos1);
    *p++ = '\t';
    p = putInt(p, mapping.mapped ? 60u : 0u); // MAPQ
    *p++ = '\t';
    if (cigarElems == 0) {
        *p++ = '*';
    } else {
        for (const CigarElem &e : mapping.cigar.elems()) {
            p = putInt(p, e.len);
            *p++ = cigarOpChar(e.op);
        }
    }
    *p++ = '\t';
    p = putText(p, rnext);
    *p++ = '\t';
    p = putInt(p, pnext);
    *p++ = '\t';
    p = putInt(p, tlen);
    *p++ = '\t';
    // Sequence is stored in original orientation; SAM wants the
    // reference-forward orientation for reverse-mapped reads. An empty
    // read has no bases to store: SEQ is '*'.
    if (read.seq.empty())
        *p++ = '*';
    else
        p = putSeq(p, read.seq, mapping.mapped && mapping.reverse);
    p = putText(p, "\t*\tAS:i:");
    p = putInt(p, mapping.score);
    *p++ = '\n';
    out.resize(static_cast<std::size_t>(p - out.data()));
}

void
SamWriter::renderPairs(std::string &out, const ReadPair *pairs,
                       const PairMapping *mappings, std::size_t n) const
{
    // Size the output once up front; grow() only reallocates when a
    // record outruns the estimate.
    std::size_t estimate = 2 * n * kRecordFieldsEstimate + kBlockSlack;
    for (std::size_t i = 0; i < n; ++i)
        estimate += pairs[i].first.name.size() + pairs[i].first.seq.size() +
                    pairs[i].second.name.size() + pairs[i].second.seq.size();
    out.reserve(out.size() + estimate);

    for (std::size_t i = 0; i < n; ++i) {
        const ReadPair &pair = pairs[i];
        const PairMapping &mapping = mappings[i];
        u32 f1 = kSamPaired | kSamFirstInPair;
        u32 f2 = kSamPaired | kSamSecondInPair;

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
                if (span <= maxProperInsert_) {
                    proper = true;
                    tlen = static_cast<i64>(span);
                }
            }
        }
        if (proper) {
            f1 |= kSamProperPair;
            f2 |= kSamProperPair;
        }
        i64 tlen1 = mapping.first.reverse ? -tlen : tlen;
        i64 tlen2 = mapping.second.reverse ? -tlen : tlen;

        renderRecord(out, pair.first, mapping.first, f1, &mapping.second,
                     tlen1);
        renderRecord(out, pair.second, mapping.second, f2, &mapping.first,
                     tlen2);
    }
}

void
SamWriter::renderRead(std::string &out, const Read &read,
                      const Mapping &mapping) const
{
    renderRecord(out, read, mapping, 0, nullptr, 0);
}

void
SamWriter::writePair(const ReadPair &pair, const PairMapping &mapping)
{
    writePairBatch(&pair, &mapping, 1);
}

void
SamWriter::writePairBatch(const ReadPair *pairs,
                          const PairMapping *mappings, std::size_t n)
{
    SamBlock block;
    block.records = 2 * n;
    renderPairs(block.bytes, pairs, mappings, n);
    commit(block);
}

void
SamWriter::writeRead(const Read &read, const Mapping &mapping)
{
    SamBlock block;
    block.records = 1;
    renderRead(block.bytes, read, mapping);
    commit(block);
}

u8
mapqFromScores(i32 best, i32 second_best, i32 perfect)
{
    if (best <= 0 || perfect <= 0)
        return 0;
    if (second_best <= 0)
        return 60;
    double gap = static_cast<double>(best - second_best) / perfect;
    double q = 60.0 * std::min(1.0, gap * 4.0);
    return static_cast<u8>(std::max(0.0, q));
}

} // namespace genomics
} // namespace gpx
