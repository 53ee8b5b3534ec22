// Fixed-budget buffer pool over a PageFile, with asynchronous prefetch.
//
// The pool owns `budget` page-sized frames — the hard memory ceiling of the
// out-of-core layer; it NEVER allocates a frame beyond the budget. Pages are
// pinned for reading (TryPin blocks on a miss, reading from disk into an
// LRU-evicted frame) and released by dropping the returned handle. Unpinned
// frames stay resident as a cache; eviction is least-recently-used among
// unpinned frames only, so a pinned page can never be stolen mid-read.
//
// Integrity: the owner hands the pool its page check (the shard store's
// checksum + manifest match, the sample store's page checksum). The pool
// runs it once per disk read, outside the latch, on whichever thread did
// the read — TryPin's or the prefetcher's — before the frame becomes
// visible. A page that fails its check is never served: the read counts as
// failed, is retried like a transient IO fault, and surfaces as kCorruption
// only after kMaxIoAttempts bad reads. Re-pins of a resident page cost no
// re-check, because a resident frame's bytes never change.
//
// Prefetch(page) is a non-blocking hint serviced by one background thread:
// it loads the page into a free/evictable frame so the next TryPin is a cache
// hit, hiding the SSD latency behind the caller's compute. Hints are
// best-effort — dropped when the page is already resident, already queued,
// or every frame is pinned — and never change what TryPin returns, only how
// fast it returns. The sequential consumers (sharded proximity passes,
// shard-sorted training epochs) pin shard s while prefetching s+1.
//
// Thread-safety: all public methods may be called concurrently; handles may
// be dropped from any thread. One TryPin of a page blocks other pins of the
// same page only for the duration of the disk read. The latch discipline is
// machine-checked: mu_ is an annotated Mutex, every guarded field is
// declared SEPRIV_GUARDED_BY(mu_), and clang's -Wthread-safety (a CI error)
// rejects any access outside the latch. Page *contents* are intentionally
// read outside the latch through pinned handles — safe because a frame with
// live pins is never evicted or reloaded, and the pin/unpin transitions
// themselves happen under mu_ (establishing the happens-before between a
// frame's last reader and its next loader).

#ifndef SEPRIVGEMB_UTIL_BUFFER_POOL_H_
#define SEPRIVGEMB_UTIL_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/page_file.h"
#include "util/status.h"

namespace sepriv {

/// Counters exposed for benches and tests. Snapshot semantics (one lock).
struct BufferPoolStats {
  uint64_t hits = 0;            // TryPin found the page resident
  uint64_t misses = 0;          // TryPin had to read from disk
  uint64_t evictions = 0;       // resident page displaced from its frame
  uint64_t prefetch_loads = 0;  // pages loaded by the background thread
  uint64_t prefetch_dropped = 0;  // hints skipped (resident/queued/no frame)
  // Failed reads or page checks the pool absorbed, each followed by a
  // re-read (TryPin's next attempt; for a prefetch, the next pin's read).
  uint64_t read_retries = 0;
};

class BufferPool {
 public:
  /// Verifies the bytes of one page just read from disk; false rejects the
  /// read. Called concurrently from TryPin callers and the prefetch thread,
  /// so it must be thread-safe (a pure function of its arguments is).
  using PageCheck =
      std::function<bool(size_t page, std::span<const std::byte> bytes)>;

  /// `budget_pages` frames of file.page_size() bytes each; clamped to >= 1.
  /// The pool reads through `file`, which must outlive it, and runs `check`
  /// after every disk read.
  BufferPool(const PageFile& file, size_t budget_pages, PageCheck check);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin: keeps the page's frame resident and readable until destroyed.
  class PageHandle {
   public:
    PageHandle() = default;
    PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
    PageHandle& operator=(PageHandle&& other) noexcept {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      data_ = other.data_;
      page_ = other.page_;
      other.pool_ = nullptr;
      other.data_ = nullptr;
      return *this;
    }
    PageHandle(const PageHandle&) = delete;
    PageHandle& operator=(const PageHandle&) = delete;
    ~PageHandle() { Release(); }

    bool valid() const { return data_ != nullptr; }
    const std::byte* data() const { return data_; }
    size_t page() const { return page_; }

   private:
    friend class BufferPool;
    PageHandle(BufferPool* pool, size_t frame, const std::byte* data,
               size_t page)
        : pool_(pool), frame_(frame), data_(data), page_(page) {}
    void Release();

    BufferPool* pool_ = nullptr;
    size_t frame_ = 0;
    const std::byte* data_ = nullptr;
    size_t page_ = 0;
  };

  /// Maximum disk-read attempts a single TryPin absorbs before surfacing
  /// the error. Attempt-count bounded, never wall-clock (sleep-wait is
  /// banned): a fault that persists for kMaxIoAttempts consecutive reads is
  /// not transient.
  static constexpr size_t kMaxIoAttempts = 3;

  /// Pins `page`, reading and checking it if not resident; transient read
  /// faults and failed checks are re-read up to kMaxIoAttempts times in all
  /// (stats().read_retries counts the absorbed failures). On persistent
  /// failure returns the last attempt's structured error — kCorruption for a
  /// failed check — and leaves `*out` invalid. Aborts (SEPRIV_CHECK) when
  /// every frame is pinned — the pool is over-pinned, a caller bug.
  Status TryPin(size_t page, PageHandle* out) SEPRIV_EXCLUDES(mu_);

  /// Asynchronous load hint; never blocks beyond a mutex.
  void Prefetch(size_t page) SEPRIV_EXCLUDES(mu_);

  size_t budget_pages() const { return budget_pages_; }
  size_t page_size() const { return file_.page_size(); }
  BufferPoolStats stats() const SEPRIV_EXCLUDES(mu_);

  /// The SEPRIV_POOL_PAGES environment variable, `fallback` when unset or
  /// invalid; 0 also resolves to the fallback (the documented auto value).
  static size_t BudgetFromEnv(size_t fallback);

 private:
  static constexpr size_t kNoPage = SIZE_MAX;
  static constexpr size_t kNoFrame = SIZE_MAX;

  struct Frame {
    std::vector<std::byte> buf;
    size_t page = kNoPage;
    size_t pins = 0;
    bool loading = false;
    uint64_t last_use = 0;
  };

  /// Claims a frame for `page` (evicting an unpinned resident page if
  /// needed) and marks it loading. Returns kNoFrame when every frame is
  /// pinned or loading.
  size_t ClaimFrameLocked(size_t page) SEPRIV_REQUIRES(mu_);

  /// Completes a claimed frame after the (unlocked) disk read.
  void FinishLoadLocked(size_t frame, bool ok) SEPRIV_REQUIRES(mu_);

  /// One disk read of `page` into `dst` followed by the owner's check (a
  /// failed check is kCorruption). Runs without the latch: touches only the
  /// claimed frame's bytes and immutable members.
  Status ReadAndCheck(size_t page, std::byte* dst) const;

  void PrefetchLoop() SEPRIV_EXCLUDES(mu_);
  void Unpin(size_t frame) SEPRIV_EXCLUDES(mu_);

  const PageFile& file_;
  const PageCheck check_;
  size_t budget_pages_ = 0;  // == frames_.size(); immutable after the ctor

  mutable Mutex mu_;
  CondVar frame_cv_;    // a loading frame became ready
  CondVar work_cv_;     // prefetch queue or shutdown
  // Frame *metadata* (page, pins, loading, ...) is guarded; frame *bytes*
  // (Frame::buf contents) are filled outside the latch by the claiming
  // loader (the frame is fenced off via `loading`) and read outside it via
  // pinned handles — see the header comment for the happens-before argument.
  // Loaders snapshot buf.data() under mu_ before releasing it.
  std::vector<Frame> frames_ SEPRIV_GUARDED_BY(mu_);
  // Iteration-order note: page_to_frame_ is lookup/insert/erase only —
  // nothing ever iterates it, so its unordered order can't leak into
  // results (eviction order is decided by the frames_ LRU scan, which is
  // index-ordered and deterministic).
  std::unordered_map<size_t, size_t> page_to_frame_ SEPRIV_GUARDED_BY(mu_);
  std::deque<size_t> prefetch_queue_ SEPRIV_GUARDED_BY(mu_);
  uint64_t tick_ SEPRIV_GUARDED_BY(mu_) = 0;
  bool stop_ SEPRIV_GUARDED_BY(mu_) = false;
  BufferPoolStats stats_ SEPRIV_GUARDED_BY(mu_);

  std::thread prefetcher_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_BUFFER_POOL_H_
