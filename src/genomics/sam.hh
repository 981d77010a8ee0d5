/**
 * @file
 * SAM (Sequence Alignment/Map) serialization.
 *
 * The paper's pipelines emit BAM for the variant-calling study (§6);
 * this writer produces the equivalent SAM text so GenPairX mappings can
 * flow into standard downstream tooling. Flags follow the SAM v1
 * specification for paired-end FR data.
 */

#ifndef GPX_GENOMICS_SAM_HH
#define GPX_GENOMICS_SAM_HH

#include <iosfwd>
#include <string>

#include "genomics/readpair.hh"
#include "genomics/reference.hh"

namespace gpx {
namespace genomics {

/** SAM FLAG bits (SAM v1 §1.4.2). */
enum SamFlag : u32
{
    kSamPaired = 0x1,
    kSamProperPair = 0x2,
    kSamUnmapped = 0x4,
    kSamMateUnmapped = 0x8,
    kSamReverse = 0x10,
    kSamMateReverse = 0x20,
    kSamFirstInPair = 0x40,
    kSamSecondInPair = 0x80,
};

/**
 * Rendered SAM records: the bytes of one engine block (or one writePair
 * call) and how many records they hold. A block owns its bytes, so the
 * thread that renders it and the thread that commits it share nothing
 * else.
 */
struct SamBlock
{
    std::string bytes;
    u64 records = 0;
};

/**
 * Renders SAM records and commits them to one output stream.
 *
 * Rendering and writing are split. renderPairs()/renderRead() are
 * const: they append records to a caller-owned string and touch
 * nothing else, so any number of threads (the mapping workers, one
 * engine block each) may render through one writer while another
 * thread commit()s. commit() is the only member that touches the
 * stream; it is called from one thread, in output order.
 */
class SamWriter
{
  public:
    /**
     * @param os Output stream.
     * @param ref Reference (for @SQ headers and coordinate conversion).
     * @param max_proper_insert TLEN bound for the proper-pair flag.
     */
    SamWriter(std::ostream &os, const Reference &ref,
              u32 max_proper_insert = 1200);

    /** Emit the @HD/@SQ/@PG header block. */
    void writeHeader();

    /**
     * Append the two records of each of @p n pairs to @p out.
     * Thread-safe: reads only the reference and the proper-pair bound.
     */
    void renderPairs(std::string &out, const ReadPair *pairs,
                     const PairMapping *mappings, std::size_t n) const;

    /** Append one single-end record (long reads) to @p out. */
    void renderRead(std::string &out, const Read &read,
                    const Mapping &mapping) const;

    /**
     * Write a rendered block to the stream and count its records. The
     * sole stream toucher: every emission funnels through here, and
     * each call is one stream write (and one `sam.write` fault check).
     */
    void commit(const SamBlock &block);

    /** Emit the two records of a mapped pair (render + commit). */
    void writePair(const ReadPair &pair, const PairMapping &mapping);

    /** Emit @p n pairs as one rendered block and one stream write. */
    void writePairBatch(const ReadPair *pairs, const PairMapping *mappings,
                        std::size_t n);

    /** Emit one single-end record (long reads; render + commit). */
    void writeRead(const Read &read, const Mapping &mapping);

    /**
     * Name the output (a path for the batch tools, a role for the
     * daemon's reply buffers) and check the stream after *every*
     * write: a short write or ENOSPC fails right at the offending
     * block with the label and byte offset in the diagnostic, instead
     * of surfacing — or not — at stream close. With @p fatal_on_error
     * the first failure kills the process (the batch tools' fatal
     * discipline); without it the failure latches into writeFailed()
     * and all further output is dropped, so a recoverable caller (the
     * serve daemon) can fail one request and keep the process.
     */
    void checkWrites(std::string label, bool fatal_on_error);

    /** True once a checked write failed (non-fatal mode). */
    bool writeFailed() const { return writeFailed_; }
    /** Diagnostic of the failed write (label + byte offset). */
    const std::string &writeError() const { return writeError_; }
    /** Payload bytes successfully handed to the stream. */
    u64 bytesWritten() const { return bytesWritten_; }

    /** Records committed so far (rendered records count on commit). */
    u64 recordsWritten() const { return records_; }

  private:
    /** Append one record; @p flags gains the per-read bits here. */
    void renderRecord(std::string &out, const Read &read,
                      const Mapping &mapping, u32 flags,
                      const Mapping *mate, i64 tlen) const;

    std::ostream &os_;
    const Reference &ref_;
    u32 maxProperInsert_;
    u64 records_ = 0;
    std::string outputLabel_;
    bool checkWrites_ = false;
    bool fatalOnError_ = false;
    bool writeFailed_ = false;
    std::string writeError_;
    u64 bytesWritten_ = 0;
};

/**
 * Mapping quality estimate from the score gap between the best and
 * second-best alignment (Li-Durbin-style, capped at 60).
 */
u8 mapqFromScores(i32 best, i32 second_best, i32 perfect);

} // namespace genomics
} // namespace gpx

#endif // GPX_GENOMICS_SAM_HH
