#include "genomics/fasta.hh"

#include <istream>
#include <ostream>

#include "util/logging.hh"

namespace gpx {
namespace genomics {

void
writeFasta(std::ostream &os, const Reference &ref, std::size_t line_width)
{
    for (u32 c = 0; c < ref.numChromosomes(); ++c) {
        os << '>' << ref.name(c) << '\n';
        std::string seq = ref.chromosome(c).toString();
        for (std::size_t i = 0; i < seq.size(); i += line_width)
            os << seq.substr(i, line_width) << '\n';
    }
}

namespace {

/** Strip a trailing carriage return (CRLF-formatted input files). */
void
chompCr(std::string &line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
}

} // namespace

Reference
readFasta(std::istream &is, IngestStats *stats)
{
    Reference ref;
    std::string line;
    std::string name;
    std::string seq;
    u64 ambiguous = 0;
    auto flush = [&]() {
        if (!name.empty())
            ref.addChromosome(name, DnaSequence(seq, &ambiguous));
        name.clear();
        seq.clear();
    };
    while (std::getline(is, line)) {
        chompCr(line);
        if (line.empty())
            continue;
        if (line[0] == '>') {
            flush();
            std::size_t end = line.find_first_of(" \t", 1);
            name = line.substr(1, end == std::string::npos ? end : end - 1);
        } else {
            seq += line;
        }
    }
    flush();
    if (ambiguous > 0)
        gpx_warn("FASTA ingestion: ", ambiguous,
                 " ambiguous (non-ACGT) bases encoded as A");
    if (stats != nullptr)
        stats->ambiguousBases += ambiguous;
    return ref;
}

void
writeFastq(std::ostream &os, const std::vector<Read> &reads, char quality)
{
    for (const auto &r : reads) {
        std::string seq = r.seq.toString();
        os << '@' << r.name << '\n'
           << seq << '\n'
           << "+\n"
           << std::string(seq.size(), quality) << '\n';
    }
}

FastqReader::FastqReader(std::istream &is, u64 record_base,
                         std::atomic<bool> *warned_ambiguous)
    : ownedRaw_(std::make_unique<util::IstreamSource>(is)),
      ownedInflate_(std::make_unique<util::AutoInflateSource>(*ownedRaw_)),
      lines_(*ownedInflate_), recordBase_(record_base),
      sharedWarn_(warned_ambiguous)
{
}

FastqReader::FastqReader(util::ByteSource &source, u64 record_base,
                         std::atomic<bool> *warned_ambiguous)
    : lines_(source), recordBase_(record_base),
      sharedWarn_(warned_ambiguous)
{
}

bool
FastqReader::claimAmbiguousWarn()
{
    if (sharedWarn_ != nullptr)
        return !sharedWarn_->exchange(true);
    if (warnedAmbiguous_)
        return false;
    warnedAmbiguous_ = true;
    return true;
}

bool
FastqReader::next(Read &read)
{
    std::string error;
    switch (tryNext(read, &error)) {
    case FastqParse::kRecord:
        return true;
    case FastqParse::kEof:
        return false;
    case FastqParse::kError:
        gpx_fatal(error);
    }
    return false; // unreachable
}

FastqParse
FastqReader::tryNext(Read &read, std::string *error)
{
    if (poisoned_) {
        if (error != nullptr)
            *error = lastError_;
        return FastqParse::kError;
    }
    auto fail = [&](std::string msg) {
        poisoned_ = true;
        lastError_ = std::move(msg);
        if (error != nullptr)
            *error = lastError_;
        return FastqParse::kError;
    };
    while (lines_.getline(header_)) {
        chompCr(header_);
        if (header_.empty())
            continue;
        if (header_[0] != '@')
            return fail(util::detail::cat(
                "malformed FASTQ header at record ",
                recordBase_ + records_ + 1, ": expected '@', got '",
                header_.substr(0, 40), "'"));
        if (!lines_.getline(seq_) || !lines_.getline(plus_) ||
            !lines_.getline(qual_)) {
            if (!lines_.error().empty())
                return fail(lines_.error());
            return fail(util::detail::cat(
                "truncated FASTQ record: EOF mid-record at record ",
                recordBase_ + records_ + 1, " (header '", header_, "')"));
        }
        chompCr(seq_);
        std::size_t end = header_.find_first_of(" \t", 1);
        read.name = header_.substr(
            1, end == std::string::npos ? end : end - 1);
        u64 ambiguousBefore = stats_.ambiguousBases;
        read.seq = DnaSequence(seq_, &stats_.ambiguousBases);
        if (stats_.ambiguousBases > ambiguousBefore &&
            claimAmbiguousWarn()) {
            gpx_warn("FASTQ ingestion: ambiguous (non-ACGT) bases encoded "
                     "as A, first in record ",
                     recordBase_ + records_ + 1, " ('", read.name,
                     "'); counting silently from here on");
        }
        read.truthPos = kInvalidPos;
        read.truthReverse = false;
        ++records_;
        return FastqParse::kRecord;
    }
    if (!lines_.error().empty())
        return fail(lines_.error());
    return FastqParse::kEof;
}

std::vector<Read>
readFastq(std::istream &is)
{
    std::vector<Read> reads;
    FastqReader reader(is);
    Read r;
    while (reader.next(r))
        reads.push_back(r);
    return reads;
}

} // namespace genomics
} // namespace gpx
