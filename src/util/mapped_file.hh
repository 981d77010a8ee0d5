/**
 * @file
 * Read-only memory-mapped file: the zero-copy substrate of the index
 * image path. A MappedFile's pages are file-backed and kernel-shared,
 * so every worker process/thread serving the same index image shares one
 * physical copy and opening costs no allocation or stream copy.
 */

#ifndef GPX_UTIL_MAPPED_FILE_HH
#define GPX_UTIL_MAPPED_FILE_HH

#include <optional>
#include <string>

#include "util/types.hh"

namespace gpx {
namespace util {

/** RAII read-only mmap of a whole file. Movable, not copyable. */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /**
     * Map @p path read-only. Returns nullopt (and sets @p error when
     * non-null) if the file cannot be opened, stat'ed or mapped. An
     * empty file maps successfully with size() == 0.
     */
    static std::optional<MappedFile> open(const std::string &path,
                                          std::string *error = nullptr);

    /** First mapped byte; nullptr when empty or default-constructed. */
    const u8 *data() const { return static_cast<const u8 *>(addr_); }
    /** Mapped length in bytes. */
    u64 size() const { return size_; }
    /** True once open() succeeded (even for an empty file). */
    bool valid() const { return valid_; }

    /**
     * Advise the kernel the whole mapping will be read soon
     * (best-effort; a no-op where madvise is unavailable).
     */
    void prefetch() const;

  private:
    void *addr_ = nullptr;
    u64 size_ = 0;
    bool valid_ = false;
};

} // namespace util
} // namespace gpx

#endif // GPX_UTIL_MAPPED_FILE_HH
