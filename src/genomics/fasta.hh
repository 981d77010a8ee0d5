/**
 * @file
 * Minimal FASTA/FASTQ serialization. The repository generates its own
 * datasets, but examples demonstrate interoperability with the standard
 * formats a downstream user would bring.
 */

#ifndef GPX_GENOMICS_FASTA_HH
#define GPX_GENOMICS_FASTA_HH

#include <atomic>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "genomics/readpair.hh"
#include "genomics/reference.hh"
#include "util/byte_stream.hh"
#include "util/gzip_stream.hh"

namespace gpx {
namespace genomics {

/** Write a reference genome as multi-record FASTA. */
void writeFasta(std::ostream &os, const Reference &ref,
                std::size_t line_width = 70);

/**
 * Ingestion statistics: every reader counts the non-ACGT characters
 * (N and other IUPAC ambiguity codes, or plain corruption) it silently
 * encoded as A, so bad inputs are no longer invisible.
 */
struct IngestStats
{
    u64 ambiguousBases = 0; ///< non-ACGT input characters encoded as A
};

/**
 * Read a FASTA stream into a Reference. When @p stats is non-null the
 * ambiguous-base count is accumulated there; a stream with any
 * ambiguous bases triggers one warning log per call.
 */
Reference readFasta(std::istream &is, IngestStats *stats = nullptr);

/** Write reads as FASTQ (constant quality, as simulated reads carry none). */
void writeFastq(std::ostream &os, const std::vector<Read> &reads,
                char quality = 'I');

/** Read a FASTQ stream. */
std::vector<Read> readFastq(std::istream &is);

/** Outcome of one FastqReader::tryNext() step. */
enum class FastqParse
{
    kRecord, ///< a record was parsed into the output
    kEof,    ///< clean end of stream, no record produced
    kError,  ///< malformed input (truncation, bad header); see message
};

/**
 * Incremental FASTQ reader for streaming pipelines: yields one record
 * at a time so arbitrarily large read sets map in bounded memory
 * (genpair::StreamingMapper drives a pair of these).
 *
 * Two error disciplines share one parser: the CLI drivers call next(),
 * which exits the process on malformed input (a batch job cannot do
 * anything useful with half a record), while gpx_serve calls
 * tryNext(), which reports the malformation to the caller so one bad
 * request can be rejected with an error frame instead of killing a
 * daemon that other clients are connected to.
 */
class FastqReader
{
  public:
    /**
     * Read from @p is. Gzip input (magic 0x1f 0x8b) is inflated
     * transparently; in a binary built without zlib it fails with a
     * "rebuild with zlib" diagnostic through the usual error paths.
     *
     * @p record_base offsets the record indices in diagnostics: a
     * reader parsing a slice that starts at global record N passes N
     * so its "record ..." messages match the whole-stream numbering.
     * @p warned_ambiguous, when non-null, is a warn-once flag shared
     * across the readers of one logical stream (parallel slice
     * parsers warn once per run, not once per slice).
     */
    explicit FastqReader(std::istream &is, u64 record_base = 0,
                         std::atomic<bool> *warned_ambiguous = nullptr);

    /**
     * Read from an already-decompressed ByteSource (slice parsing —
     * no gzip sniffing: a mid-stream slice is always plain text).
     */
    explicit FastqReader(util::ByteSource &source, u64 record_base = 0,
                         std::atomic<bool> *warned_ambiguous = nullptr);

    /** Parse the next record into @p read; false at end of stream.
     *  Fatal (process exit) on malformed input — CLI discipline. */
    bool next(Read &read);

    /**
     * Recoverable form of next(): parses the next record into @p read
     * and reports malformed input as kError (with a diagnostic in
     * @p error when non-null) instead of exiting. After kError the
     * reader is poisoned: every further call returns kError (the
     * stream position inside a broken record is meaningless).
     */
    FastqParse tryNext(Read &read, std::string *error = nullptr);

    /** Records yielded so far (by this reader; excludes record_base). */
    u64 recordsRead() const { return records_; }

    /** Non-ACGT bases (encoded as A) seen so far; warns once per reader. */
    u64 ambiguousBases() const { return stats_.ambiguousBases; }

    /** Full ingestion statistics. */
    const IngestStats &stats() const { return stats_; }

  private:
    bool claimAmbiguousWarn();

    // Owned only by the istream constructor; declaration order is the
    // construction order the stack needs (raw below inflate).
    std::unique_ptr<util::IstreamSource> ownedRaw_;
    std::unique_ptr<util::AutoInflateSource> ownedInflate_;
    util::LineReader lines_;
    u64 recordBase_;
    u64 records_ = 0;
    IngestStats stats_;
    std::atomic<bool> *sharedWarn_;
    bool warnedAmbiguous_ = false;
    bool poisoned_ = false;
    // Line buffers of tryNext(), kept so their capacity carries over
    // from record to record.
    std::string header_;
    std::string seq_;
    std::string plus_;
    std::string qual_;
    std::string lastError_;
};

} // namespace genomics
} // namespace gpx

#endif // GPX_GENOMICS_FASTA_HH
