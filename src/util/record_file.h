// Checksummed record files: the one frame every whole-file format in the
// library shares — training checkpoints, per-shard proximity-cache entries
// and shard manifests.
//
// Frame (little-endian, the only architecture the project targets):
//
//   u64 magic | u64 version | payload | u64 FnvDigest(every preceding byte)
//
// RecordWriter appends fixed-width fields to an in-memory buffer and
// publishes it with WriteFileAtomic (write-temp + fsync + rename + directory
// fsync), so a crash leaves the old file or the new one, never a torn one;
// Seal hands the frame back instead, for a format that stores it inside a
// page of its own file. RecordReader::Open reads the whole file (Parse takes
// bytes already read) and checks the trailing digest, then the magic, then
// the version, before any field is handed out. Every
// later read is bounds-checked against the payload and trips a sticky
// failure flag instead of touching memory past it; counts read through
// GetCount are checked against the bytes left before a caller can multiply
// or allocate with them. A format's loader reads its fields, then asks
// Done() — every read in bounds and the payload consumed exactly.

#ifndef SEPRIVGEMB_UTIL_RECORD_FILE_H_
#define SEPRIVGEMB_UTIL_RECORD_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "util/status.h"

namespace sepriv {

class RecordWriter {
 public:
  /// Starts a record with its magic and version; `payload_hint` bytes are
  /// reserved up front so large payloads are not re-grown while appended.
  RecordWriter(uint64_t magic, uint64_t version, size_t payload_hint = 0);

  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutBytes(&v, sizeof(v));
  }

  void PutBytes(const void* data, size_t len) {
    if (len != 0) buf_.append(static_cast<const char*>(data), len);
  }

  /// Appends the digest trailer and returns the framed bytes, for a frame
  /// stored inside a larger file (the sample store's header page). The
  /// writer must not be reused.
  std::string Seal();

  /// Appends the digest trailer and atomically, durably replaces `path`.
  /// `failpoint_base` names the WriteFileAtomic fault-injection family
  /// (`<base>.{write,sync,rename}`). The writer must not be reused.
  Status Publish(const std::string& path, const char* failpoint_base);

 private:
  std::string buf_;
};

class RecordReader {
 public:
  /// Reads `path` and verifies its frame. kNotFound when the file is
  /// missing, kIoError when it cannot be read, kCorruption when it is too
  /// short, fails its digest, or carries another magic or version. Only on
  /// Ok are the Get* accessors meaningful. Evaluates `<failpoint_base>.read`
  /// (torn ⇒ the digest rejects the bytes).
  Status Open(const std::string& path, uint64_t magic, uint64_t version,
              const char* failpoint_base);

  /// Verifies the frame of `bytes` already in memory, as Open does for a
  /// file's bytes; `name` labels the errors.
  Status Parse(std::string bytes, uint64_t magic, uint64_t version,
               const std::string& name);

  /// Next field; value-initialised T (and the failure flag) past the end.
  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    GetBytes(&v, sizeof(v));
    return v;
  }

  /// Copies the next `len` bytes into `out`; false (and the failure flag)
  /// when fewer remain.
  bool GetBytes(void* out, size_t len);

  /// Reads a u64 element count and accepts it only when that many elements
  /// of `elem_bytes` (> 0) each fit in the bytes left; otherwise returns 0
  /// and trips the failure flag.
  uint64_t GetCount(size_t elem_bytes);

  /// Payload bytes not yet read.
  size_t remaining() const { return end_ - pos_; }

  /// Every read so far stayed in bounds.
  bool ok() const { return ok_; }

  /// ok() and the payload is consumed exactly: no trailing bytes.
  bool Done() const { return ok_ && pos_ == end_; }

 private:
  Status Verify(uint64_t magic, uint64_t version, const std::string& name);

  std::string buf_;
  size_t pos_ = 0;
  size_t end_ = 0;  // start of the digest trailer
  bool ok_ = false;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_RECORD_FILE_H_
