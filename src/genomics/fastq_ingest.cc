#include "genomics/fastq_ingest.hh"

#include <algorithm>

#include "util/logging.hh"

namespace gpx {
namespace genomics {

u64
SliceScanner::scan(u64 max_records, std::string &text, bool &partial_tail)
{
    partial_tail = false;
    if (eof_)
        return 0;
    u64 records = 0;
    while (records < max_records) {
        record_.clear();
        bool haveHeader = false;
        while (lines_.getline(line_)) {
            std::size_t len = line_.size();
            if (len > 0 && line_.back() == '\r')
                --len; // CR-stripped emptiness, same test as the parser
            record_.append(line_);
            record_.push_back('\n');
            if (len > 0) {
                haveHeader = true;
                break;
            }
        }
        if (!haveHeader) {
            eof_ = true;
            // Trailing blank lines are part of the stream (the parser
            // skips them identically); a source failure keeps nothing.
            if (lines_.error().empty())
                text.append(record_);
            return records;
        }
        bool truncated = false;
        for (int i = 0; i < 3 && !truncated; ++i) {
            if (!lines_.getline(line_)) {
                truncated = true;
            } else {
                record_.append(line_);
                record_.push_back('\n');
            }
        }
        if (truncated) {
            eof_ = true;
            if (lines_.error().empty()) {
                // Genuine EOF mid-record: ship the tail so the parse
                // worker reproduces the serial truncation diagnostic.
                text.append(record_);
                partial_tail = true;
            }
            return records;
        }
        text.append(record_);
        ++records;
    }
    return records;
}

PairedFastqChunker::PairedFastqChunker(util::ByteSource &r1,
                                       util::ByteSource &r2,
                                       u64 chunk_pairs)
    : scan1_(r1), scan2_(r2), chunkPairs_(chunk_pairs == 0 ? 1 : chunk_pairs)
{
}

bool
PairedFastqChunker::next(FastqChunk &chunk)
{
    if (done_)
        return false;
    chunk.seq = nextSeq_;
    chunk.recordBase = pairsScanned_;
    chunk.pairs = 0;
    chunk.r1Text.clear();
    chunk.r2Text.clear();
    chunk.scanError = IngestError{};
    bool p1 = false;
    bool p2 = false;
    while (chunk.pairs < chunkPairs_) {
        // Lockstep, one pair at a time, mirroring the serial
        // next(r1); next(r2); check-disagree iteration so every error
        // candidate lands at the exact serial firing position.
        const u64 errorIndex = pairsScanned_ + chunk.pairs + 1;
        if (scan1_.scan(1, chunk.r1Text, p1) == 0) {
            done_ = true;
            if (!scan1_.error().empty()) {
                chunk.scanError = {errorIndex, 0, scan1_.error()};
            } else if (!p1) {
                // Clean R1 EOF: probe R2 as the serial loop's next(r2)
                // call would. A complete record there is the
                // disagreement; a partial tail is an R2 truncation the
                // parse worker reproduces from the shipped tail.
                if (scan2_.scan(1, chunk.r2Text, p2) == 1) {
                    chunk.scanError = {
                        errorIndex, 2,
                        util::detail::cat(
                            "FASTQ streams disagree: R1 ended early "
                            "after ",
                            pairsScanned_ + chunk.pairs,
                            " records while R2 still has reads (",
                            errorIndex, " so far)")};
                } else if (!scan2_.error().empty()) {
                    chunk.scanError = {errorIndex, 1, scan2_.error()};
                }
            }
            // p1: the R1 tail is in r1Text; the parse worker produces
            // the serial truncation diagnostic at errorIndex, rank 0.
            break;
        }
        if (scan2_.scan(1, chunk.r2Text, p2) == 0) {
            done_ = true;
            if (!scan2_.error().empty()) {
                chunk.scanError = {errorIndex, 1, scan2_.error()};
            } else if (!p2) {
                chunk.scanError = {
                    errorIndex, 2,
                    util::detail::cat(
                        "FASTQ streams disagree: R2 ended early after ",
                        pairsScanned_ + chunk.pairs,
                        " records while R1 still has reads (", errorIndex,
                        " so far)")};
            }
            break;
        }
        ++chunk.pairs;
    }
    pairsScanned_ += chunk.pairs;
    ++nextSeq_;
    if (chunk.pairs == 0 && !chunk.scanError.set() &&
        chunk.r1Text.empty() && chunk.r2Text.empty())
        return false; // nothing at all: suppress the empty terminal chunk
    return true;
}

ParsedChunk
parseFastqChunk(FastqChunk &&chunk, std::atomic<bool> *warned_ambiguous)
{
    ParsedChunk out;
    out.seq = chunk.seq;
    out.recordBase = chunk.recordBase;
    util::StringSource s1(std::move(chunk.r1Text));
    util::StringSource s2(std::move(chunk.r2Text));
    FastqReader r1(s1, chunk.recordBase, warned_ambiguous);
    FastqReader r2(s2, chunk.recordBase, warned_ambiguous);

    auto parseAll = [&](FastqReader &reader, std::vector<Read> &reads,
                        int rank) {
        IngestError candidate;
        Read rec;
        std::string err;
        for (;;) {
            switch (reader.tryNext(rec, &err)) {
            case FastqParse::kRecord:
                reads.push_back(std::move(rec));
                continue;
            case FastqParse::kError:
                candidate = {chunk.recordBase + reader.recordsRead() + 1,
                             rank, std::move(err)};
                break;
            case FastqParse::kEof:
                break;
            }
            return candidate;
        }
    };

    std::vector<Read> reads1;
    std::vector<Read> reads2;
    reads1.reserve(chunk.pairs);
    reads2.reserve(chunk.pairs);
    IngestError e1 = parseAll(r1, reads1, 0);
    IngestError e2 = parseAll(r2, reads2, 1);
    out.r1Stats = r1.stats();
    out.r2Stats = r2.stats();

    out.error = e1;
    if (e2.before(out.error))
        out.error = e2;
    if (chunk.scanError.before(out.error))
        out.error = chunk.scanError;

    const std::size_t n =
        std::min({reads1.size(), reads2.size(),
                  static_cast<std::size_t>(chunk.pairs)});
    out.pairs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ReadPair pair;
        pair.first = std::move(reads1[i]);
        pair.second = std::move(reads2[i]);
        out.pairs.push_back(std::move(pair));
    }
    return out;
}

} // namespace genomics
} // namespace gpx
