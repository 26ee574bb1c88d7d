// ManagedFile::read_at's warm path.  A span of fewer than kCoalescePages
// pages first copies its leading pages that the pool can answer alone
// (BufferPool::read_resident): resident, not mid-I/O and valid over the
// bytes asked of them.  Those copies never size the file and never pin;
// read_at's only pin follows its sizing, so a read that makes no store
// size() call took no pin either.  Every page the pool cannot answer
// falls back to the sized path, which must return what it always did:
// a short read at the end of the file, zeros for a hole, the bytes of a
// page another thread is still loading.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "io/store_decorator.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

constexpr std::size_t kPage = 256;

/// The byte at file offset `at`: differs within a page and across pages.
std::byte pattern(std::uint64_t at) {
  return static_cast<std::byte>((at * 131 + (at >> 8)) % 251 + 1);
}

std::vector<std::byte> pattern_bytes(std::uint64_t offset, std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pattern(offset + i);
  return out;
}

/// Counts the store calls a read may make (file sizes, and loads of either
/// shape), and can hold the next single-page load on a latch so a test can
/// keep a page mid-load (io_busy) while another thread reads it.
class CountingStore final : public StoreDecorator {
 public:
  using StoreDecorator::StoreDecorator;

  [[nodiscard]] std::uint64_t size(FileId id) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      size_calls_++;
      cv_.notify_all();
    }
    return StoreDecorator::size(id);
  }
  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      loads_++;
      if (armed_) {
        armed_ = false;
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    return StoreDecorator::read(id, offset, out);
  }
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      loads_++;
    }
    return StoreDecorator::readv(id, offset, parts);
  }

  [[nodiscard]] std::uint64_t size_calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_calls_;
  }
  [[nodiscard]] std::uint64_t loads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return loads_;
  }
  void hold_next_read() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
  }
  void wait_until_held() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return held_; });
  }
  void wait_for_size_calls(std::uint64_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return size_calls_ >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable std::uint64_t size_calls_ = 0;
  std::uint64_t loads_ = 0;
  bool armed_ = false;
  bool held_ = false;
  bool released_ = false;
};

class WarmReadTest : public ::testing::Test {
 protected:
  /// A 256-byte-page fs over the counting store, 4 shards, whose file
  /// "w.bin" holds `bytes` bytes of pattern(), flushed and all cold.
  void make(std::uint64_t bytes) {
    auto owned = std::make_unique<CountingStore>(
        std::make_unique<RealFileStore>(dir_.path()));
    store_ = owned.get();
    ManagedFsOptions options;
    options.page_size = kPage;
    options.pool_pages = 64;
    options.pool_shards = 4;
    fs_ = std::make_unique<ManagedFileSystem>(std::move(owned), options);
    {
      auto f = fs_->open("w.bin", OpenMode::kTruncate);
      f.write(pattern_bytes(0, bytes));
    }
    fs_->drop_caches();
    file_ = fs_->open("w.bin", OpenMode::kReadWrite);
  }

  /// read_at of `n` bytes at `offset`, as a byte vector cut to the count.
  std::vector<std::byte> read(std::uint64_t offset, std::size_t n) {
    std::vector<std::byte> buf(n, std::byte{0xa5});
    buf.resize(file_.read_at(offset, buf));
    return buf;
  }

  util::TempDir dir_;
  CountingStore* store_ = nullptr;
  std::unique_ptr<ManagedFileSystem> fs_;
  ManagedFile file_;  ///< declared last: closed first
};

TEST_F(WarmReadTest, ResidentSpansNeitherSizeNorLoad) {
  make(40 * kPage);
  for (std::uint64_t p = 0; p < 40; p += 8) {
    ASSERT_EQ(read(p * kPage, 8 * kPage).size(), 8 * kPage);
  }
  const std::uint64_t sizes = store_->size_calls();
  const std::uint64_t loads = store_->loads();
  const PoolStats before = fs_->pool().stats();
  // One page; six pages of one run; five pages across the run boundary
  // at page 16.
  EXPECT_EQ(read(5 * kPage + 10, 100), pattern_bytes(5 * kPage + 10, 100));
  EXPECT_EQ(read(2 * kPage + 7, 5 * kPage),
            pattern_bytes(2 * kPage + 7, 5 * kPage));
  EXPECT_EQ(read(14 * kPage + 100, 4 * kPage),
            pattern_bytes(14 * kPage + 100, 4 * kPage));
  EXPECT_EQ(store_->size_calls(), sizes);
  EXPECT_EQ(store_->loads(), loads);
  const PoolStats after = fs_->pool().stats();
  EXPECT_EQ(after.hits - before.hits, 1u + 6u + 5u);
  EXPECT_EQ(after.misses, before.misses);
  fs_->pool().debug_validate();
}

TEST_F(WarmReadTest, AColdPageSizesTheFileOnce) {
  make(40 * kPage);
  ASSERT_EQ(read(0, 4 * kPage).size(), 4 * kPage);
  const std::uint64_t sizes = store_->size_calls();
  const PoolStats before = fs_->pool().stats();
  // Pages 2-3 are copied warm; page 4 is cold, so read_at sizes the file
  // once, and pin_span's gather of pages 4-6 makes the one more size()
  // call its clamp at the store's EOF always makes.
  EXPECT_EQ(read(2 * kPage + 1, 5 * kPage - 2),
            pattern_bytes(2 * kPage + 1, 5 * kPage - 2));
  const PoolStats after = fs_->pool().stats();
  EXPECT_EQ(after.gather_read_calls - before.gather_read_calls, 1u);
  EXPECT_EQ(store_->size_calls() - sizes, 1u + 1u);
  EXPECT_EQ(after.misses - before.misses, 3u);
  EXPECT_EQ(after.hits - before.hits, 2u);
  // Now every page is resident: no size() call at all.
  EXPECT_EQ(read(2 * kPage + 1, 5 * kPage - 2),
            pattern_bytes(2 * kPage + 1, 5 * kPage - 2));
  EXPECT_EQ(store_->size_calls() - sizes, 2u);
  fs_->pool().debug_validate();
}

TEST_F(WarmReadTest, ShortLastPageReadsShortPastTheEnd) {
  make(10 * kPage + 100);
  ASSERT_EQ(read(10 * kPage, 50).size(), 50u);  // the last page, loaded
  const std::uint64_t sizes = store_->size_calls();
  // Inside the page's valid bytes the read is warm ...
  EXPECT_EQ(read(10 * kPage + 20, 80), pattern_bytes(10 * kPage + 20, 80));
  EXPECT_EQ(store_->size_calls(), sizes);
  // ... and past them it is sized and clamped at the end of the file.
  EXPECT_EQ(read(10 * kPage + 50, 300), pattern_bytes(10 * kPage + 50, 50));
  EXPECT_EQ(read(9 * kPage + 10, kPage + 200),
            pattern_bytes(9 * kPage + 10, kPage + 90));
  EXPECT_TRUE(read(10 * kPage + 100, 10).empty());
  EXPECT_GT(store_->size_calls(), sizes);
  fs_->pool().debug_validate();
}

TEST_F(WarmReadTest, PageLoadedShortReadsItsHoleAsZerosOnceTheFileGrows) {
  make(4 * kPage + 100);
  ASSERT_EQ(read(4 * kPage, kPage).size(), 100u);  // page 4 valid to 100
  {
    // Another handle extends the file past page 4 with a hole between.
    auto other = fs_->open("w.bin", OpenMode::kReadWrite);
    other.write_at(8 * kPage, pattern_bytes(8 * kPage, kPage));
  }
  std::vector<std::byte> want = pattern_bytes(4 * kPage, 100);
  want.resize(kPage + 50);  // the hole's zeros, through page 5
  const std::uint64_t loads = store_->loads();
  EXPECT_EQ(read(4 * kPage, kPage + 50), want);
  // A read inside the loaded bytes is still warm.
  const std::uint64_t sizes = store_->size_calls();
  EXPECT_EQ(read(4 * kPage + 10, 90), pattern_bytes(4 * kPage + 10, 90));
  EXPECT_EQ(store_->size_calls(), sizes);
  EXPECT_EQ(store_->loads() - loads, 1u);  // page 5, for the first read
  fs_->pool().debug_validate();
}

TEST_F(WarmReadTest, PageWhollyPastTheStoreEndReadsAsZeros) {
  make(2 * kPage);
  // A dirty page 6 makes the file 6 pages and 10 bytes, with pages 2-5
  // past the store's end: a read of page 3 loads it as zeros, valid 0.
  file_.write_at(6 * kPage, pattern_bytes(6 * kPage, 10));
  const std::vector<std::byte> zeros(kPage);
  EXPECT_EQ(read(3 * kPage, kPage), zeros);
  ASSERT_TRUE(fs_->pool().contains(file_.id(), 3));
  // Resident again, but valid over none of its bytes: the sized path
  // answers, with the same zeros and no load.
  const std::uint64_t sizes = store_->size_calls();
  const std::uint64_t loads = store_->loads();
  EXPECT_EQ(read(3 * kPage, kPage), zeros);
  EXPECT_EQ(store_->size_calls() - sizes, 1u);
  EXPECT_EQ(store_->loads(), loads);
  // Across the dirty page's end the read is short, sized or not.
  std::vector<std::byte> tail(kPage - 5);
  const std::vector<std::byte> dirty = pattern_bytes(6 * kPage, 10);
  tail.insert(tail.end(), dirty.begin(), dirty.end());
  EXPECT_EQ(read(5 * kPage + 5, 2 * kPage), tail);
  EXPECT_EQ(read(6 * kPage, 10), dirty);
  fs_->pool().debug_validate();
}

TEST_F(WarmReadTest, PageMidLoadIsWaitedOutBySizedPath) {
  make(8 * kPage);
  ASSERT_EQ(read(2 * kPage, kPage).size(), kPage);  // page 2 resident
  store_->hold_next_read();
  std::thread loader([&] {
    auto guard = fs_->pool().pin(file_.id(), 3);  // a single-page load
  });
  store_->wait_until_held();  // page 3 is io_busy
  const std::uint64_t sizes = store_->size_calls();
  std::vector<std::byte> got;
  std::thread reader([&] { got = read(2 * kPage + 30, kPage); });
  // The reader copied page 2 warm, stopped at page 3 and sized the file;
  // its pin then waits for the load.
  store_->wait_for_size_calls(sizes + 1);
  store_->release();
  loader.join();
  reader.join();
  EXPECT_EQ(got, pattern_bytes(2 * kPage + 30, kPage));
  EXPECT_EQ(store_->size_calls() - sizes, 1u);
  fs_->pool().debug_validate();
}

TEST(HotRunTest, ARunLeavingThePageTableLeavesNoHotRunBehind) {
  // Each shard remembers the run its last lookup found, so a read after a
  // seek skips the hash probe.  A run that an eviction or a discard takes
  // out of the table must not be answered from that memory: the pages
  // read back from the store, and debug_validate checks the hot run
  // against the table.
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("h.bin", true);
  store.write(file, 0, pattern_bytes(0, 32 * kPage));
  BufferPool pool(store, BufferPoolConfig{.page_size = kPage,
                                          .capacity_pages = 1,
                                          .shards = 1});
  std::vector<std::byte> buf(100);
  static_cast<void>(pool.pin(file, 0));
  ASSERT_EQ(pool.read_resident(file, 10, buf), buf.size());  // run 0 hot
  // The pool's one frame goes to page 16, of run 1: run 0 is evicted.
  static_cast<void>(pool.pin(file, 16));
  pool.debug_validate();
  EXPECT_EQ(pool.read_resident(file, 10, buf), 0u);
  ASSERT_EQ(pool.read_resident(file, 16 * kPage + 5, buf), buf.size());
  EXPECT_EQ(buf, pattern_bytes(16 * kPage + 5, buf.size()));
  // A discard erases run 1, the hot run now.
  pool.discard_file(file);
  pool.debug_validate();
  EXPECT_EQ(pool.read_resident(file, 16 * kPage + 5, buf), 0u);
  auto guard = pool.pin(file, 0);
  EXPECT_EQ(guard.data()[10], pattern(10));
}

TEST(WarmReadConcurrencyTest, WriterExtendingAPageBesideAWarmReader) {
  // One thread appends 8 bytes at a time; another reads the file's first
  // pages over and over.  Each read must return a prefix of the final
  // content: the warm copy sees a page's new bytes only once its valid
  // extent covers them, under the same shard lock mark_dirty takes.
  constexpr std::size_t kStep = 8;
  constexpr std::size_t kBytes = 3 * kPage;
  util::TempDir dir;
  ManagedFsOptions options;
  options.page_size = kPage;
  options.pool_pages = 32;
  ManagedFileSystem fs(std::make_unique<RealFileStore>(dir.path()), options);
  for (int round = 0; round < 8; ++round) {
    const std::string name = "grow" + std::to_string(round) + ".bin";
    auto writer_file = fs.open(name, OpenMode::kTruncate);
    auto reader_file = fs.open(name, OpenMode::kRead);
    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (std::size_t at = 0; at < kBytes; at += kStep) {
        writer_file.write_at(at, pattern_bytes(at, kStep));
      }
      done.store(true);
    });
    std::string failure;
    std::vector<std::byte> buf(kPage + 64);
    for (std::uint64_t i = 0; failure.empty(); ++i) {
      const bool last = done.load();
      const std::uint64_t offset = (i * 40) % (2 * kPage);
      const std::size_t got = reader_file.read_at(offset, buf);
      const std::vector<std::byte> want = pattern_bytes(offset, got);
      if (!std::equal(want.begin(), want.end(), buf.begin())) {
        failure = "read at " + std::to_string(offset) + " of " +
                  std::to_string(got) + " bytes differs";
      }
      if (last) break;
    }
    writer.join();
    EXPECT_EQ(failure, "");
    EXPECT_EQ(reader_file.size(), kBytes);
  }
  fs.pool().debug_validate();
}

}  // namespace
}  // namespace clio::io
