#include "util/page_file.h"

#include <cerrno>
#include <cstdint>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/failpoint.h"

namespace sepriv {
namespace {

/// Result of a full-length positional transfer. POSIX allows short transfers
/// and EINTR at any point; the loops below retry both, so a failure here is
/// a real error (or, for reads, end-of-file inside a page — a truncation).
enum class XferResult { kOk, kEof, kErr };

XferResult FullPread(int fd, void* buf, size_t len, off_t offset) {
  auto* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t got = ::pread(fd, p, len, offset);
    if (got < 0) {
      if (errno == EINTR) continue;
      return XferResult::kErr;
    }
    if (got == 0) return XferResult::kEof;  // file ends mid-page
    p += got;
    len -= static_cast<size_t>(got);
    offset += got;
  }
  return XferResult::kOk;
}

XferResult FullPwrite(int fd, const void* buf, size_t len, off_t offset) {
  const auto* p = static_cast<const char*>(buf);
  while (len > 0) {
    const ssize_t put = ::pwrite(fd, p, len, offset);
    if (put < 0) {
      if (errno == EINTR) continue;
      return XferResult::kErr;
    }
    p += put;
    len -= static_cast<size_t>(put);
    offset += put;
  }
  return XferResult::kOk;
}

Status ErrnoIoStatus(const char* op, const std::string& path, int err) {
  const std::string msg =
      std::string(op) + " " + path + ": " + std::strerror(err);
  if (err == ENOSPC) return NoSpaceError(msg);
  return IoError(msg);
}

/// The one read path of TryReadPage and TryReadPrefix: `len` bytes at
/// `offset`, through the "page_file.read" fault-injection site.
Status ReadRange(int fd, const std::string& path, void* out, size_t len,
                 off_t offset) {
  bool torn = false;
  switch (failpoint::Evaluate("page_file.read")) {
    case failpoint::Action::kError:
    case failpoint::Action::kEnospc:
      return IoError("injected read failure on " + path);
    case failpoint::Action::kCrash:
      failpoint::CrashNow();
    case failpoint::Action::kTorn:
      torn = true;
      break;
    case failpoint::Action::kNone:
      break;
  }
  switch (FullPread(fd, out, len, offset)) {
    case XferResult::kOk:
      break;
    case XferResult::kEof:
      return CorruptionError("short read: " + path + " truncated mid-page");
    case XferResult::kErr:
      return ErrnoIoStatus("pread", path, errno);
  }
  if (torn) {
    // The read "succeeds" but the returned bytes are rotted: flip one bit
    // early in the page — inside the header/checksum region every consumer
    // verifies — so the caller's checksum layer must reject it. (The middle
    // of the page can be zero padding a payload checksum doesn't cover.)
    static_cast<char*>(out)[len > 16 ? 16 : len / 2] ^= 0x40;
  }
  return OkStatus();
}

}  // namespace

std::unique_ptr<PageFile> PageFile::Create(const std::string& path,
                                           size_t page_size) {
  if (page_size == 0) return nullptr;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return nullptr;
  return std::unique_ptr<PageFile>(new PageFile(fd, path, page_size, 0));
}

std::unique_ptr<PageFile> PageFile::Open(const std::string& path,
                                         size_t page_size) {
  if (page_size == 0) return nullptr;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return nullptr;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
      static_cast<uint64_t>(st.st_size) % page_size != 0) {
    ::close(fd);
    return nullptr;  // missing or truncated mid-page
  }
  const size_t pages = static_cast<uint64_t>(st.st_size) / page_size;
  return std::unique_ptr<PageFile>(new PageFile(fd, path, page_size, pages));
}

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PageFile::TryReadPage(size_t index, void* out) const {
  if (index >= num_pages_) {
    return FailedPreconditionError("read past end of " + path_);
  }
  return ReadRange(fd_, path_, out, page_size_,
                   static_cast<off_t>(index * page_size_));
}

Status PageFile::TryReadPrefix(const std::string& path, size_t len,
                               void* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoIoStatus("open", path, errno);
  const Status read = ReadRange(fd, path, out, len, 0);
  ::close(fd);
  return read;
}

Status PageFile::TryWritePage(size_t index, const void* data) {
  if (index > num_pages_) {
    return FailedPreconditionError("write would leave a hole in " + path_);
  }
  const off_t offset = static_cast<off_t>(index * page_size_);
  switch (failpoint::Evaluate("page_file.write")) {
    case failpoint::Action::kError:
      return IoError("injected write failure on " + path_);
    case failpoint::Action::kEnospc:
      return NoSpaceError("injected ENOSPC on " + path_);
    case failpoint::Action::kTorn:
      FullPwrite(fd_, data, page_size_ / 2, offset);
      return IoError("injected torn write on " + path_);
    case failpoint::Action::kCrash:
      FullPwrite(fd_, data, page_size_ / 2, offset);
      failpoint::CrashNow();
    case failpoint::Action::kNone:
      break;
  }
  if (FullPwrite(fd_, data, page_size_, offset) != XferResult::kOk) {
    return ErrnoIoStatus("pwrite", path_, errno);
  }
  if (index == num_pages_) ++num_pages_;
  return OkStatus();
}

Status PageFile::TryAppendPage(const void* data, size_t* index) {
  const size_t at = num_pages_;
  SEPRIV_RETURN_IF_ERROR(TryWritePage(at, data));
  *index = at;
  return OkStatus();
}

Status PageFile::TrySync() {
  switch (failpoint::Evaluate("page_file.sync")) {
    case failpoint::Action::kError:
    case failpoint::Action::kEnospc:
      return IoError("injected fsync failure on " + path_);
    case failpoint::Action::kCrash:
      failpoint::CrashNow();
    default:
      break;
  }
  if (::fsync(fd_) != 0) return ErrnoIoStatus("fsync", path_, errno);
  return OkStatus();
}

}  // namespace sepriv
