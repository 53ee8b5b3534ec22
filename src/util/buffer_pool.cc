#include "util/buffer_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/env.h"

namespace sepriv {

BufferPool::BufferPool(const PageFile& file, size_t budget_pages,
                       PageCheck check)
    : file_(file), check_(std::move(check)) {
  SEPRIV_CHECK(check_ != nullptr, "buffer pool needs a page check");
  budget_pages = std::max<size_t>(1, budget_pages);
  budget_pages_ = budget_pages;
  {
    // The constructor is single-threaded, but the prefetcher starts before
    // the body returns — initialise the guarded state under the latch so
    // the analysis (and TSan) see a proper release/acquire pair.
    MutexLock lock(mu_);
    frames_.resize(budget_pages);
    for (Frame& f : frames_) f.buf.resize(file_.page_size());
    page_to_frame_.reserve(budget_pages);
  }
  prefetcher_ = std::thread([this] { PrefetchLoop(); });
}

BufferPool::~BufferPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  prefetcher_.join();
}

size_t BufferPool::ClaimFrameLocked(size_t page) {
  size_t victim = kNoFrame;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.pins > 0 || f.loading) continue;
    if (f.page == kNoPage) {  // empty frame: take it immediately
      victim = i;
      break;
    }
    if (victim == kNoFrame || f.last_use < frames_[victim].last_use) {
      victim = i;  // LRU among unpinned resident frames
    }
  }
  if (victim == kNoFrame) return kNoFrame;
  Frame& f = frames_[victim];
  if (f.page != kNoPage) {
    page_to_frame_.erase(f.page);
    ++stats_.evictions;
  }
  f.page = page;
  f.loading = true;
  page_to_frame_.emplace(page, victim);
  return victim;
}

void BufferPool::FinishLoadLocked(size_t frame, bool ok) {
  Frame& f = frames_[frame];
  f.loading = false;
  if (!ok) {
    // Leave no mapping to a garbage frame; the next TryPin retries the read.
    page_to_frame_.erase(f.page);
    f.page = kNoPage;
  }
  frame_cv_.NotifyAll();
}

Status BufferPool::ReadAndCheck(size_t page, std::byte* dst) const {
  SEPRIV_RETURN_IF_ERROR(file_.TryReadPage(page, dst));
  if (!check_(page, std::span<const std::byte>(dst, file_.page_size()))) {
    return CorruptionError("page " + std::to_string(page) + " of " +
                           file_.path() + " failed its check");
  }
  return OkStatus();
}

Status BufferPool::TryPin(size_t page, PageHandle* out) {
  *out = PageHandle();
  MutexLock lock(mu_);
  for (;;) {
    auto it = page_to_frame_.find(page);
    if (it != page_to_frame_.end()) {
      Frame& f = frames_[it->second];
      if (f.loading) {
        // A prefetch (or another TryPin) is reading this page right now; wait
        // for the read instead of issuing a duplicate one.
        frame_cv_.Wait(mu_);
        continue;  // re-resolve: the load may have failed
      }
      ++f.pins;
      f.last_use = ++tick_;
      ++stats_.hits;
      *out = PageHandle(this, it->second, f.buf.data(), page);
      return OkStatus();
    }

    const size_t frame = ClaimFrameLocked(page);
    if (frame == kNoFrame) {
      // Every frame is pinned or mid-load. If anything is loading, a frame
      // will free up; waiting is correct. If everything is *pinned*, the
      // caller holds more handles than the budget — a usage bug.
      const bool any_loading = std::any_of(
          frames_.begin(), frames_.end(),
          [](const Frame& f) { return f.loading; });
      SEPRIV_CHECK(any_loading,
                   "buffer pool over-pinned: all %zu frames hold live pins "
                   "(raise the budget or drop handles before pinning more)",
                   frames_.size());
      frame_cv_.Wait(mu_);
      continue;
    }

    ++stats_.misses;
    // Snapshot the destination while the latch proves the frame is ours
    // (`loading` fences it from eviction), then read and check without the
    // latch. Plain IO errors and bad bytes (a failed check, a short read)
    // get a bounded number of immediate re-reads; ENOSPC and precondition
    // failures surface at once.
    std::byte* dst = frames_[frame].buf.data();
    Status read_status;
    for (size_t attempt = 1; attempt <= kMaxIoAttempts; ++attempt) {
      lock.Unlock();
      read_status = ReadAndCheck(page, dst);
      lock.Lock();
      const bool retryable = read_status.transient() ||
                             read_status.code() == StatusCode::kCorruption;
      if (read_status.ok() || !retryable || attempt == kMaxIoAttempts) break;
      ++stats_.read_retries;
    }
    FinishLoadLocked(frame, read_status.ok());
    if (!read_status.ok()) return read_status;
    Frame& f = frames_[frame];
    ++f.pins;
    f.last_use = ++tick_;
    *out = PageHandle(this, frame, f.buf.data(), page);
    return OkStatus();
  }
}

void BufferPool::Prefetch(size_t page) {
  {
    MutexLock lock(mu_);
    if (stop_ || page >= file_.num_pages() ||
        page_to_frame_.count(page) != 0 ||
        std::find(prefetch_queue_.begin(), prefetch_queue_.end(), page) !=
            prefetch_queue_.end()) {
      ++stats_.prefetch_dropped;
      return;
    }
    prefetch_queue_.push_back(page);
  }
  work_cv_.NotifyOne();
}

void BufferPool::PrefetchLoop() {
  MutexLock lock(mu_);
  for (;;) {
    while (!stop_ && prefetch_queue_.empty()) work_cv_.Wait(mu_);
    if (stop_) return;
    const size_t page = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    if (page_to_frame_.count(page) != 0) {
      ++stats_.prefetch_dropped;  // became resident since the hint
      continue;
    }
    const size_t frame = ClaimFrameLocked(page);
    if (frame == kNoFrame) {
      ++stats_.prefetch_dropped;  // pool saturated with pins: hint dropped
      continue;
    }
    std::byte* dst = frames_[frame].buf.data();
    lock.Unlock();
    const bool ok = ReadAndCheck(page, dst).ok();
    lock.Lock();
    // A failed prefetch leaves the page absent, so the next TryPin reads it
    // again itself: the bad bytes are never served.
    FinishLoadLocked(frame, ok);
    if (ok) {
      ++stats_.prefetch_loads;
    } else {
      ++stats_.read_retries;
    }
  }
}

void BufferPool::Unpin(size_t frame) {
  MutexLock lock(mu_);
  Frame& f = frames_[frame];
  SEPRIV_CHECK(f.pins > 0, "unpin of an unpinned frame");
  --f.pins;
  // No notify needed for eviction (scans find the frame), but a TryPin may be
  // waiting for *any* frame to become evictable.
  if (f.pins == 0) frame_cv_.NotifyAll();
}

void BufferPool::PageHandle::Release() {
  if (pool_ != nullptr && data_ != nullptr) pool_->Unpin(frame_);
  pool_ = nullptr;
  data_ = nullptr;
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t BufferPool::BudgetFromEnv(size_t fallback) {
  return ParseSizeEnv("SEPRIV_POOL_PAGES", /*max=*/1u << 20, fallback,
                      /*zero_means_fallback=*/true);
}

}  // namespace sepriv
