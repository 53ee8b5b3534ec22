#include "util/record_file.h"

#include <cstring>
#include <utility>

#include "util/atomic_file.h"
#include "util/digest.h"

namespace sepriv {

RecordWriter::RecordWriter(uint64_t magic, uint64_t version,
                           size_t payload_hint) {
  buf_.reserve(3 * sizeof(uint64_t) + payload_hint);
  Put(magic);
  Put(version);
}

std::string RecordWriter::Seal() {
  Put(FnvDigest(buf_.data(), buf_.size()));
  return std::move(buf_);
}

Status RecordWriter::Publish(const std::string& path,
                             const char* failpoint_base) {
  const std::string frame = Seal();
  return WriteFileAtomic(path, frame.data(), frame.size(), failpoint_base);
}

Status RecordReader::Open(const std::string& path, uint64_t magic,
                          uint64_t version, const char* failpoint_base) {
  ok_ = false;
  pos_ = end_ = 0;
  SEPRIV_RETURN_IF_ERROR(ReadFileToString(path, &buf_, failpoint_base));
  return Verify(magic, version, path);
}

Status RecordReader::Parse(std::string bytes, uint64_t magic,
                           uint64_t version, const std::string& name) {
  buf_ = std::move(bytes);
  return Verify(magic, version, name);
}

Status RecordReader::Verify(uint64_t magic, uint64_t version,
                            const std::string& name) {
  ok_ = false;
  pos_ = end_ = 0;
  if (buf_.size() < 3 * sizeof(uint64_t)) {
    return CorruptionError(name + ": too short for a record file");
  }
  // The digest first: a torn or rotted file fails here before any field
  // (the magic and version included) is trusted.
  end_ = buf_.size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, buf_.data() + end_, sizeof(stored));
  if (FnvDigest(buf_.data(), end_) != stored) {
    return CorruptionError(name + ": checksum mismatch (torn or rotted)");
  }
  ok_ = true;
  if (Get<uint64_t>() != magic) return CorruptionError(name + ": bad magic");
  if (Get<uint64_t>() != version) {
    return CorruptionError(name + ": unsupported format version");
  }
  return OkStatus();
}

bool RecordReader::GetBytes(void* out, size_t len) {
  if (!ok_ || len > remaining()) {
    ok_ = false;
    return false;
  }
  if (len != 0) std::memcpy(out, buf_.data() + pos_, len);
  pos_ += len;
  return true;
}

uint64_t RecordReader::GetCount(size_t elem_bytes) {
  const uint64_t count = Get<uint64_t>();
  if (!ok_ || count > remaining() / elem_bytes) {
    ok_ = false;
    return 0;
  }
  return count;
}

}  // namespace sepriv
