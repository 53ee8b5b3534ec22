#include "util/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "util/mem.h"
#include "util/page_file.h"
#include "test_dir.h"

namespace sepriv {
namespace {

constexpr size_t kPage = 4096;

class BufferPoolTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) const { return tmp_ / name; }

  const TestDir tmp_;

  /// A page file whose page p is filled with byte value (p + 1).
  std::unique_ptr<PageFile> MakeFile(const std::string& path, size_t pages) {
    auto file = PageFile::Create(path, kPage);
    EXPECT_NE(file, nullptr);
    std::vector<std::byte> buf(kPage);
    for (size_t p = 0; p < pages; ++p) {
      std::memset(buf.data(), static_cast<int>(p + 1), kPage);
      size_t index = 0;
      EXPECT_TRUE(file->TryAppendPage(buf.data(), &index).ok());
      EXPECT_EQ(index, p);
    }
    EXPECT_TRUE(file->TrySync().ok());
    return file;
  }

  /// Page check for tests that exercise the pool, not the check.
  static bool AcceptAll(size_t, std::span<const std::byte>) { return true; }

  /// Pins `page`, failing the test on a read error.
  static BufferPool::PageHandle MustPin(BufferPool& pool, size_t page) {
    BufferPool::PageHandle h;
    const Status status = pool.TryPin(page, &h);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return h;
  }

  static bool PageIs(const BufferPool::PageHandle& h, size_t p) {
    if (!h.valid()) return false;
    for (size_t i = 0; i < kPage; ++i) {
      if (h.data()[i] != std::byte{static_cast<unsigned char>(p + 1)}) {
        return false;
      }
    }
    return true;
  }
};

TEST_F(BufferPoolTest, PageFileRoundTripAndTruncationDetection) {
  const std::string path = TempPath("roundtrip");
  MakeFile(path, 3);

  auto ro = PageFile::Open(path, kPage);
  ASSERT_NE(ro, nullptr);
  EXPECT_EQ(ro->num_pages(), 3u);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(ro->TryReadPage(1, buf.data()).ok());
  EXPECT_EQ(buf[0], std::byte{2});
  EXPECT_EQ(ro->TryReadPage(3, buf.data()).code(),
            StatusCode::kFailedPrecondition);  // out of range

  // A torn file (not a whole number of pages) must be rejected at Open.
  std::filesystem::resize_file(path, 2 * kPage + 17);
  EXPECT_EQ(PageFile::Open(path, kPage), nullptr);
}

TEST_F(BufferPoolTest, PinReturnsCorrectBytesAndCountsHits) {
  const std::string path = TempPath("hits");
  auto file = MakeFile(path, 6);
  BufferPool pool(*file, 2, AcceptAll);

  for (size_t p = 0; p < 6; ++p) {
    auto h = MustPin(pool, p);
    EXPECT_TRUE(PageIs(h, p)) << "page " << p;
  }
  const BufferPoolStats cold = pool.stats();
  EXPECT_EQ(cold.misses, 6u);
  EXPECT_EQ(cold.hits, 0u);

  // The last pinned page is still resident: a re-pin is a hit.
  auto h = MustPin(pool, 5);
  EXPECT_TRUE(PageIs(h, 5));
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST_F(BufferPoolTest, BudgetIsAHardCeilingWithLruEviction) {
  const std::string path = TempPath("lru");
  auto file = MakeFile(path, 4);
  BufferPool pool(*file, 2, AcceptAll);
  EXPECT_EQ(pool.budget_pages(), 2u);

  {
    auto a = MustPin(pool, 0);
    auto b = MustPin(pool, 1);
    // Both frames pinned: page 2 has nowhere to go, but dropping a pin
    // frees a frame.
    EXPECT_TRUE(PageIs(a, 0));
    EXPECT_TRUE(PageIs(b, 1));
  }
  auto c = MustPin(pool, 2);  // evicts the LRU unpinned page
  EXPECT_TRUE(PageIs(c, 2));
  EXPECT_GE(pool.stats().evictions, 1u);
}

TEST_F(BufferPoolTest, CheckRunsOncePerDiskRead) {
  const std::string path = TempPath("checkonce");
  auto file = MakeFile(path, 3);
  std::atomic<size_t> checks[3] = {};
  // One frame: every distinct page evicts the resident one.
  BufferPool pool(*file, 1, [&](size_t page, std::span<const std::byte> b) {
    EXPECT_EQ(b.size(), kPage);
    checks[page].fetch_add(1);
    return true;
  });

  {
    auto h = MustPin(pool, 0);
    EXPECT_TRUE(PageIs(h, 0));
    EXPECT_EQ(checks[0].load(), 1u);
    auto again = MustPin(pool, 0);  // resident: a hit, no re-check
    EXPECT_TRUE(PageIs(again, 0));
  }
  EXPECT_EQ(checks[0].load(), 1u);
  EXPECT_EQ(pool.stats().hits, 1u);

  { auto other = MustPin(pool, 1); }  // evicts page 0
  EXPECT_EQ(checks[1].load(), 1u);
  auto reread = MustPin(pool, 0);     // read from disk again: checked again
  EXPECT_TRUE(PageIs(reread, 0));
  EXPECT_EQ(checks[0].load(), 2u);
  EXPECT_EQ(pool.stats().misses, 3u);
}

TEST_F(BufferPoolTest, FailedCheckIsReReadAndServed) {
  const std::string path = TempPath("checkonce_fail");
  auto file = MakeFile(path, 2);
  std::atomic<size_t> calls{0};
  BufferPool pool(*file, 2, [&](size_t, std::span<const std::byte>) {
    return calls.fetch_add(1) != 0;  // the first read is rejected
  });

  auto h = MustPin(pool, 1);
  EXPECT_TRUE(PageIs(h, 1));
  EXPECT_EQ(calls.load(), 2u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.read_retries, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(BufferPoolTest, PersistentCheckFailureSurfacesCorruption) {
  const std::string path = TempPath("checkfail");
  auto file = MakeFile(path, 2);
  std::atomic<bool> corrupt{true};
  std::atomic<size_t> calls{0};
  BufferPool pool(*file, 2, [&](size_t, std::span<const std::byte>) {
    calls.fetch_add(1);
    return !corrupt.load();
  });

  BufferPool::PageHandle h;
  EXPECT_EQ(pool.TryPin(0, &h).code(), StatusCode::kCorruption);
  EXPECT_FALSE(h.valid());
  // Every attempt read the page and checked it; none was served.
  EXPECT_EQ(calls.load(), BufferPool::kMaxIoAttempts);
  EXPECT_EQ(pool.stats().read_retries, BufferPool::kMaxIoAttempts - 1);

  // No frame was left holding the rejected bytes: a clean read serves.
  corrupt = false;
  h = MustPin(pool, 0);
  EXPECT_TRUE(PageIs(h, 0));
  EXPECT_EQ(calls.load(), BufferPool::kMaxIoAttempts + 1);
}

TEST_F(BufferPoolTest, PrefetchedPageFailingItsCheckIsNeverServed) {
  const std::string path = TempPath("prefetch_bad");
  auto file = MakeFile(path, 4);
  std::atomic<size_t> calls{0};
  BufferPool pool(*file, 2, [&](size_t, std::span<const std::byte>) {
    return calls.fetch_add(1) != 0;  // the prefetch's read is rejected
  });

  pool.Prefetch(3);
  // Only the prefetch thread reads until TryPin below, so the first check
  // is the prefetch's. Spin (no sleep) until it has run.
  while (calls.load() == 0) std::this_thread::yield();

  auto h = MustPin(pool, 3);
  EXPECT_TRUE(PageIs(h, 3));
  EXPECT_EQ(calls.load(), 2u);  // the pin read the page again itself
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetch_loads, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.read_retries, 1u);
}

TEST_F(BufferPoolTest, PrefetchMakesNextPinAHit) {
  const std::string path = TempPath("prefetch");
  auto file = MakeFile(path, 8);
  BufferPool pool(*file, 4, AcceptAll);

  pool.Prefetch(3);
  // The background load is asynchronous; Pin must return the right bytes
  // whether it raced ahead or not.
  auto h = MustPin(pool, 3);
  EXPECT_TRUE(PageIs(h, 3));
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetch_loads + stats.misses + stats.hits >= 1, true);
}

TEST_F(BufferPoolTest, BudgetFromEnvParsesAndClamps) {
  ::setenv("SEPRIV_POOL_PAGES", "12", 1);
  EXPECT_EQ(BufferPool::BudgetFromEnv(4), 12u);
  ::setenv("SEPRIV_POOL_PAGES", "0", 1);
  EXPECT_EQ(BufferPool::BudgetFromEnv(4), 4u);
  ::unsetenv("SEPRIV_POOL_PAGES");
  EXPECT_EQ(BufferPool::BudgetFromEnv(4), 4u);
}

TEST_F(BufferPoolTest, RssHelpersReportPlausibleValues) {
  // procfs is present on the CI/test platforms; peak >= current > 0, and
  // both helpers must agree with each other's order.
  const size_t current = CurrentRssBytes();
  const size_t peak = PeakRssBytes();
  ASSERT_GT(current, 0u);
  ASSERT_GT(peak, 0u);
  EXPECT_GE(peak, current);
}

}  // namespace
}  // namespace sepriv
