// Fixed-page-size file storage: the SSD substrate of the out-of-core layer.
//
// A PageFile is an array of equally sized pages addressed by index, living in
// one ordinary file. Reads and writes go through pread/pwrite so concurrent
// readers (the buffer pool's foreground pins and its background prefetcher)
// never share a file cursor. The file carries no header of its own — callers
// (shard manifests, the sample store) record the page size in their own
// metadata and pass it back at open time.

#ifndef SEPRIVGEMB_UTIL_PAGE_FILE_H_
#define SEPRIVGEMB_UTIL_PAGE_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "util/status.h"

namespace sepriv {

class PageFile {
 public:
  /// Creates (or truncates) `path` as an empty page file. Returns nullptr on
  /// I/O failure. `page_size` must be positive.
  static std::unique_ptr<PageFile> Create(const std::string& path,
                                          size_t page_size);

  /// Opens an existing page file read-only. Fails (nullptr) when the file is
  /// missing or its size is not a whole number of pages — a truncated file
  /// is detected here, before any page is trusted.
  static std::unique_ptr<PageFile> Open(const std::string& path,
                                        size_t page_size);

  ~PageFile();
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  size_t page_size() const { return page_size_; }
  size_t num_pages() const { return num_pages_; }
  const std::string& path() const { return path_; }

  /// Reads page `index` into `out` (page_size bytes). Thread-safe (pread).
  /// Distinguishes kFailedPrecondition (index out of range), kCorruption
  /// (EOF mid-page: the file shrank under us) and kIoError (syscall failure).
  /// Fault-injection site: "page_file.read" (torn ⇒ bytes deterministically
  /// corrupted so the caller's checksum must catch it).
  Status TryReadPage(size_t index, void* out) const;

  /// Reads the first `len` bytes of the file at `path`: the bootstrap read
  /// of a format that records its own page size in its first page, before
  /// the file can be opened as pages. Same fault-injection site and error
  /// codes as TryReadPage (kCorruption when the file is shorter than `len`).
  static Status TryReadPrefix(const std::string& path, size_t len, void* out);

  /// Writes page `index` from `data` (page_size bytes). Extends the file
  /// when index == num_pages(). Not thread-safe against other writers.
  /// ENOSPC surfaces as kNoSpace. Fault-injection site: "page_file.write"
  /// (torn ⇒ half the page is written before the error).
  Status TryWritePage(size_t index, const void* data);

  /// Appends one page, storing its index in `*index`.
  Status TryAppendPage(const void* data, size_t* index);

  /// Flushes file contents to stable storage.
  /// Fault-injection site: "page_file.sync".
  Status TrySync();

 private:
  PageFile(int fd, std::string path, size_t page_size, size_t num_pages)
      : fd_(fd),
        path_(std::move(path)),
        page_size_(page_size),
        num_pages_(num_pages) {}

  int fd_ = -1;
  std::string path_;
  size_t page_size_ = 0;
  size_t num_pages_ = 0;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_PAGE_FILE_H_
