// The buffer pool's per-file index: each shard lists the frames of each
// file it holds, and flush_file and discard_file work through that list
// instead of the whole page table.  These tests hold the per-file work to
// its own file (other files' frames, LRU order, dirty bits and in-flight
// write-backs are left alone), check that a discard still waits out a load
// of its own file, that a frame reused for another file moves to that
// file's list, and that a POST's open, write and close cost does not grow
// with the pages other files keep resident.  Labelled `io`, so the TSan
// job runs them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "io/store_decorator.hpp"

namespace clio::io {
namespace {

constexpr std::size_t kPage = 256;

std::unique_ptr<BackingStore> memory_store() {
  return std::make_unique<SimFileStore>(1, 64 * 1024);
}

/// Fills page `page_no` of `file` with `c` and marks it dirty.
void dirty_page(BufferPool& pool, FileId file, std::uint64_t page_no, char c) {
  auto guard = pool.pin(file, page_no);
  std::memset(guard.data().data(), c, kPage);
  guard.mark_dirty(kPage);
}

/// Holds the next `read` or `write` of one file on a latch before it
/// reaches the inner store.
class LatchStore final : public StoreDecorator {
 public:
  using StoreDecorator::StoreDecorator;

  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    hold(id, /*is_write=*/false);
    return StoreDecorator::read(id, offset, out);
  }
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override {
    hold(id, /*is_write=*/true);
    StoreDecorator::write(id, offset, data);
  }

  void hold_next(FileId file, bool is_write) {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = file;
    armed_write_ = is_write;
    released_ = false;
  }
  void wait_until_held() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return held_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  void hold(FileId id, bool is_write) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (armed_ != id || armed_write_ != is_write) return;
    armed_ = kInvalidFile;
    held_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    held_ = false;
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  FileId armed_ = kInvalidFile;
  bool armed_write_ = false;
  bool held_ = false;
  bool released_ = false;
};

char stored(BackingStore& store, FileId file, std::uint64_t page_no) {
  std::vector<std::byte> b(1);
  if (store.read(file, page_no * kPage, b) == 0) return '\0';
  return static_cast<char>(b[0]);
}

TEST(FileIndexTest, DiscardLeavesOtherFilesFramesLruOrderAndDirtyBits) {
  auto store = memory_store();
  const FileId a = store->open("a.bin", true);
  const FileId b = store->open("b.bin", true);
  BufferPool pool(*store,
                  {.page_size = kPage, .capacity_pages = 8, .shards = 1});
  // The LRU, oldest first: b0 a0 b1 a1 b2 a2 b3 a3.  b1, b3 and a1 are
  // dirty.
  for (std::uint64_t p = 0; p < 4; ++p) {
    if (p % 2 == 1) {
      dirty_page(pool, b, p, static_cast<char>('0' + p));
    } else {
      static_cast<void>(pool.pin(b, p));
    }
    if (p == 1) {
      dirty_page(pool, a, p, 'a');
    } else {
      static_cast<void>(pool.pin(a, p));
    }
  }
  pool.discard_file(a);
  pool.debug_validate();
  EXPECT_EQ(pool.resident_pages(), 4u);
  for (std::uint64_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(pool.contains(a, p)) << p;
    EXPECT_TRUE(pool.contains(b, p)) << p;
  }
  EXPECT_FALSE(pool.may_be_dirty(a));
  EXPECT_TRUE(pool.may_be_dirty(b));

  // b's dirty bits survived: its flush writes b1 and b3, nothing else.
  pool.flush_file(b);
  EXPECT_EQ(pool.stats().flush_write_pages, 2u);
  EXPECT_EQ(stored(*store, b, 0), '\0');
  EXPECT_EQ(stored(*store, b, 1), '1');
  EXPECT_EQ(stored(*store, b, 2), '\0');
  EXPECT_EQ(stored(*store, b, 3), '3');
  EXPECT_EQ(store->size(a), 0u);

  // b's LRU order survived: a's four frames are free, so four pages of c
  // take them, and each further page evicts b's pages oldest first.
  const FileId c = store->open("c.bin", true);
  for (std::uint64_t p = 0; p < 4; ++p) static_cast<void>(pool.pin(c, p));
  EXPECT_EQ(pool.stats().evictions, 0u);
  for (std::uint64_t k = 0; k < 4; ++k) {
    static_cast<void>(pool.pin(c, 4 + k));
    for (std::uint64_t p = 0; p < 4; ++p) {
      EXPECT_EQ(pool.contains(b, p), p > k) << "after evicting " << k;
    }
  }
  pool.debug_validate();
}

TEST(FileIndexTest, FlushWritesOnlyItsFileAndSkipsAnotherFilesWriteBack) {
  // b0 is dirty and the LRU victim of a full pool.  A pin of c evicts it,
  // and its write-back is held before it reaches the store.  flush_file(a)
  // waits out write-backs of a's pages only: it must write a0 and a1 and
  // return while b0's write-back is still held.
  LatchStore store(memory_store());
  const FileId a = store.open("a.bin", true);
  const FileId b = store.open("b.bin", true);
  const FileId c = store.open("c.bin", true);
  BufferPool pool(store,
                  {.page_size = kPage, .capacity_pages = 3, .shards = 1});
  dirty_page(pool, b, 0, 'b');
  dirty_page(pool, a, 0, 'a');
  dirty_page(pool, a, 1, 'A');
  store.hold_next(b, /*is_write=*/true);
  std::thread evictor([&] { static_cast<void>(pool.pin(c, 0)); });
  store.wait_until_held();
  auto flushed = std::async(std::launch::async, [&] { pool.flush_file(a); });
  EXPECT_EQ(flushed.wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "flush_file(a) waited on a write-back of b";
  store.release();
  evictor.join();
  flushed.get();
  EXPECT_EQ(pool.stats().flush_write_pages, 2u);
  EXPECT_EQ(pool.stats().writebacks, 3u);  // a0 and a1, then b0's eviction
  EXPECT_EQ(stored(store, a, 0), 'a');
  EXPECT_EQ(stored(store, a, 1), 'A');
  EXPECT_EQ(stored(store, b, 0), 'b');
  EXPECT_FALSE(pool.may_be_dirty(a));
  pool.flush_file(b);  // b0 went out with its eviction: nothing to write
  EXPECT_EQ(pool.stats().flush_write_pages, 2u);
  EXPECT_FALSE(pool.may_be_dirty(b));
  pool.debug_validate();
}

TEST(FileIndexTest, DiscardWaitsOutAnInFlightLoadOfItsFile) {
  // A load of a0 is held in the store.  discard_file(a) must not return
  // before that load has finished, and must then drop the page it loaded;
  // b's page stays.
  LatchStore store(memory_store());
  const FileId a = store.open("a.bin", true);
  const FileId b = store.open("b.bin", true);
  store.inner().write(a, 0, std::vector<std::byte>(kPage, std::byte{'x'}));
  BufferPool pool(store,
                  {.page_size = kPage, .capacity_pages = 4, .shards = 1});
  dirty_page(pool, b, 0, 'b');
  store.hold_next(a, /*is_write=*/false);
  std::thread loader([&] { EXPECT_TRUE(pool.prefetch(a, 0)); });
  store.wait_until_held();
  EXPECT_TRUE(pool.contains(a, 0));  // mid-load
  std::atomic<bool> discarded{false};
  std::thread discarder([&] {
    pool.discard_file(a);
    discarded = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(discarded.load())
      << "discard_file returned while a load of its file was in flight";
  store.release();
  loader.join();
  discarder.join();
  EXPECT_FALSE(pool.contains(a, 0));
  EXPECT_TRUE(pool.contains(b, 0));
  EXPECT_EQ(pool.resident_pages(), 1u);
  EXPECT_TRUE(pool.may_be_dirty(b));
  pool.debug_validate();
}

TEST(FileIndexTest, FrameReusedForAnotherFileIsListedOnlyUnderIt) {
  // A full pool holds pages of a; pages of b then evict them and reuse
  // their frames, in one shard and across four (a shard evicts its own
  // pages first, then borrows from its siblings).  Per-file work on a
  // must then find none of b's pages.  Each file's four pages lie a run
  // apart, so with four shards they spread over them.
  constexpr std::uint64_t kStride = BufferPool::kRunPages;
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    auto store = memory_store();
    const FileId a = store->open("a.bin", true);
    const FileId b = store->open("b.bin", true);
    BufferPool pool(
        *store, {.page_size = kPage, .capacity_pages = 4, .shards = shards});
    for (std::uint64_t i = 0; i < 4; ++i) dirty_page(pool, a, i * kStride, 'a');
    for (std::uint64_t i = 0; i < 4; ++i) dirty_page(pool, b, i * kStride, 'b');
    pool.debug_validate();
    EXPECT_GE(pool.stats().evictions, 4u);
    std::vector<bool> b_resident;
    for (std::uint64_t i = 0; i < 4; ++i) {
      b_resident.push_back(pool.contains(b, i * kStride));
      // One shard evicts in exact LRU order: every a page, no b page.
      if (shards == 1) {
        EXPECT_TRUE(b_resident.back()) << i;
        EXPECT_FALSE(pool.contains(a, i * kStride)) << i;
      }
    }
    pool.discard_file(a);
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_FALSE(pool.contains(a, i * kStride)) << i;
      EXPECT_EQ(pool.contains(b, i * kStride), b_resident[i]) << i;
    }
    pool.debug_validate();
    pool.flush_file(b);
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(stored(*store, b, i * kStride), 'b') << i;
    }
    pool.discard_file(b);
    EXPECT_EQ(pool.resident_pages(), 0u);
    pool.debug_validate();
  }
}

/// One POST's file steps: a truncating open, one page written, and the
/// flushing close.  Returns the wall time in nanoseconds.
std::int64_t post_cycle(ManagedFileSystem& fs,
                        std::span<const std::byte> body) {
  const auto start = std::chrono::steady_clock::now();
  auto file = fs.open("post.bin", OpenMode::kTruncate);
  file.write(body);
  file.close();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::int64_t median(std::vector<std::int64_t> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

TEST(FileIndexScaling, PostCycleCostDoesNotGrowWithResidentPages) {
  // The same 4 KiB POST cycle on two pools of one size, one holding 256
  // resident pages of other files and one 16k: a per-file index makes the
  // open's discard and the close's flush visit the posted file's pages
  // only, where whole-table walks would visit 64 times as many entries.
  // The cycles alternate between the pools, and each side's median of
  // many is compared, so a burst of machine noise lands on both sides.
  constexpr std::size_t kPageSize = 4096;
  constexpr std::size_t kSmall = 256;
  constexpr std::size_t kLarge = 16 * 1024;
  constexpr std::size_t kFilePages = 16;
  constexpr int kReps = 301;
  ManagedFsOptions options;
  options.page_size = kPageSize;
  options.pool_pages = kLarge + 64;
  ManagedFileSystem small(memory_store(), options);
  ManagedFileSystem large(memory_store(), options);
  const std::pair<ManagedFileSystem*, std::size_t> sides[] = {
      {&small, kSmall}, {&large, kLarge}};
  for (const auto& [fs, resident] : sides) {
    for (std::size_t f = 0; f < resident / kFilePages; ++f) {
      auto file = fs->open("other" + std::to_string(f), OpenMode::kTruncate);
      for (std::uint64_t p = 0; p < kFilePages; ++p) {
        static_cast<void>(fs->pool().pin(file.id(), p));
      }
    }
    ASSERT_EQ(fs->pool().resident_pages(), resident);
  }
  const std::vector<std::byte> body(kPageSize, std::byte{'p'});
  for (int i = 0; i < 20; ++i) {  // warm both sides
    static_cast<void>(post_cycle(small, body));
    static_cast<void>(post_cycle(large, body));
  }
  std::vector<std::int64_t> small_ns;
  std::vector<std::int64_t> large_ns;
  for (int i = 0; i < kReps; ++i) {
    small_ns.push_back(post_cycle(small, body));
    large_ns.push_back(post_cycle(large, body));
  }
  const std::int64_t small_median = median(small_ns);
  const std::int64_t large_median = median(large_ns);
  RecordProperty("small_median_ns", std::to_string(small_median));
  RecordProperty("large_median_ns", std::to_string(large_median));
  EXPECT_LT(large_median, 4 * small_median)
      << "median POST cycle: " << small_median << " ns at " << kSmall
      << " resident pages, " << large_median << " ns at " << kLarge;
  EXPECT_EQ(large.pool().resident_pages(), kLarge + 1);
  small.pool().debug_validate();
  large.pool().debug_validate();
}

}  // namespace
}  // namespace clio::io
