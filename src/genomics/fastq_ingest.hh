/**
 * @file
 * Parallel chunked FASTQ ingest: the record-boundary scanner and the
 * paired-stream chunker feeding the streaming spine.
 *
 * The historical pipeline parsed both FASTQ streams on one thread —
 * record boundary detection, name extraction and 2-bit DNA encoding
 * all serialized. This layer splits ingest in two:
 *
 *   SliceScanner      — cheap: finds record boundaries with memchr
 *                       and slices raw text, no per-base work
 *   PairedFastqChunker— one per run: scans R1/R2 in lockstep into
 *                       sequence-numbered FastqChunk raw-text slices
 *   parseFastqChunk   — expensive: full FastqReader parse of a slice
 *                       (encoding, validation), safe to run on N
 *                       threads over disjoint chunks concurrently
 *
 * Error contract: the combination reproduces the serial reader's
 * diagnostics exactly. Every failure candidate — R1 parse error, R2
 * parse error, stream-length disagreement, byte-source failure — is
 * tagged with (absolute record index, stream rank) and the minimum
 * wins, which is precisely the order the serial interleaved
 * next(r1)/next(r2) loop would have hit them in. Truncated tails are
 * included in the slice text so the parse worker reproduces the
 * serial truncation message verbatim; the chunker itself never
 * validates record contents.
 */

#ifndef GPX_GENOMICS_FASTQ_INGEST_HH
#define GPX_GENOMICS_FASTQ_INGEST_HH

#include <atomic>
#include <string>
#include <vector>

#include "genomics/fasta.hh"
#include "genomics/readpair.hh"
#include "util/byte_stream.hh"

namespace gpx {
namespace genomics {

/**
 * One ingest-failure candidate, ordered the way the serial reader
 * would have hit it: by absolute record index first, then by rank
 * within the pair iteration (R1 parse = 0, R2 parse = 1, stream
 * disagreement = 2, matching the serial next(r1); next(r2);
 * check-disagree sequence).
 */
struct IngestError
{
    u64 recordIndex = 0;
    int rank = 0;
    std::string message;

    bool set() const { return !message.empty(); }

    /** True when this candidate fires before @p other serially. */
    bool
    before(const IngestError &other) const
    {
        if (!set())
            return false;
        if (!other.set())
            return true;
        if (recordIndex != other.recordIndex)
            return recordIndex < other.recordIndex;
        return rank < other.rank;
    }
};

/** Raw-text slice of both streams: the unit of parallel parsing. */
struct FastqChunk
{
    u64 seq = 0;        ///< chunk sequence number (reorder key)
    u64 recordBase = 0; ///< complete pairs before this chunk
    u64 pairs = 0;      ///< complete pairs scanned into the texts
    std::string r1Text; ///< raw slice (may hold pairs+1 records, or a
                        ///< truncated tail, around a stream error)
    std::string r2Text;
    IngestError scanError; ///< chunker-detected candidate (disagreement
                           ///< or byte-source failure); parse workers
                           ///< may still find an earlier one
};

/** Parse output of one chunk, ready for the mapper. */
struct ParsedChunk
{
    u64 seq = 0;
    u64 recordBase = 0;
    std::vector<ReadPair> pairs;
    IngestError error; ///< winning candidate for this chunk (if any)
    IngestStats r1Stats;
    IngestStats r2Stats;
};

/**
 * Record-boundary scanner over one decompressed FASTQ byte stream.
 * Mirrors the parser's line discipline exactly — blank lines (after
 * CR strip) are skipped only at the header position, a final line
 * without '\n' still counts — but validates nothing: slices are
 * parsed (and diagnosed) downstream.
 */
class SliceScanner
{
  public:
    explicit SliceScanner(util::ByteSource &source) : lines_(source) {}

    /**
     * Append up to @p max_records complete records (raw text,
     * newline-terminated lines) to @p text. Returns the number of
     * complete records appended. A record cut off by EOF is still
     * appended — with @p partial_tail set — so the parser reproduces
     * the serial truncation diagnostic.
     */
    u64 scan(u64 max_records, std::string &text, bool &partial_tail);

    /** Byte-source failure (corrupt gzip, missing zlib); scan stops. */
    const std::string &error() const { return lines_.error(); }

  private:
    util::LineReader lines_;
    bool eof_ = false;
    // Per-call buffers kept as members so their capacity carries over
    // (the chunker scans one record per call). record_ stages a record
    // so a source failure drops the tail.
    std::string line_;
    std::string record_;
};

/**
 * Lockstep scanner over a FASTQ pair of streams. next() yields
 * sequence-numbered chunks of up to chunk_pairs complete pairs;
 * stream-length disagreement and source failures surface as
 * IngestError candidates on the final chunk, with slice text
 * arranged so parse workers reproduce the serial diagnostics
 * (see file comment).
 */
class PairedFastqChunker
{
  public:
    PairedFastqChunker(util::ByteSource &r1, util::ByteSource &r2,
                       u64 chunk_pairs);

    /**
     * Scan the next chunk. False at clean matched EOF with nothing
     * scanned; a chunk carrying only an error candidate still
     * returns true. After an error chunk (or false), the chunker is
     * exhausted.
     */
    bool next(FastqChunk &chunk);

  private:
    SliceScanner scan1_;
    SliceScanner scan2_;
    const u64 chunkPairs_;
    u64 nextSeq_ = 0;
    u64 pairsScanned_ = 0;
    bool done_ = false;
};

/**
 * Fully parse one chunk's raw text (the expensive half of ingest; runs
 * concurrently across chunks). @p warned_ambiguous is the run-wide
 * warn-once flag shared by every slice parser.
 */
ParsedChunk parseFastqChunk(FastqChunk &&chunk,
                            std::atomic<bool> *warned_ambiguous);

} // namespace genomics
} // namespace gpx

#endif // GPX_GENOMICS_FASTQ_INGEST_HH
