// The coherence rule of BufferPool::write_around, one race at a time.  A
// write of kCoalescePages pages or more is one store write; the resident
// pages of its range take the new bytes before it (so no write-back can
// land older bytes over them) and again after it (so a page a reader
// loaded while it ran does not keep the old bytes).  Each test holds one
// store call on a latch to force its race, then checks the bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/managed_file.hpp"
#include "io/store_decorator.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

constexpr std::size_t kPage = 256;
constexpr std::size_t kPages = BufferPool::kCoalescePages + 16;

std::vector<std::byte> uniform(std::size_t n, char c) {
  return std::vector<std::byte>(n, static_cast<std::byte>(c));
}

/// Holds the next `write` of at most `hold_max` bytes on a latch before it
/// reaches the inner store, and records the largest write that reached it.
class LatchStore final : public StoreDecorator {
 public:
  using StoreDecorator::StoreDecorator;

  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (armed_ && data.size() <= hold_max_) {
        armed_ = false;
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
        held_ = false;
      }
    }
    StoreDecorator::write(id, offset, data);
    std::lock_guard<std::mutex> lock(mutex_);
    largest_landed_ = std::max(largest_landed_, data.size());
    cv_.notify_all();
  }

  void hold_next_write(std::size_t hold_max) {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
    released_ = false;
    hold_max_ = hold_max;
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
  /// Waits up to `timeout` for a write of `landed_min` bytes or more to
  /// land; returns whether one did.
  bool wait_for_landed(std::size_t landed_min,
                       std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout,
                        [&] { return largest_landed_ >= landed_min; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
  bool released_ = false;
  std::size_t hold_max_ = 0;
  std::size_t largest_landed_ = 0;
};

class WriteAroundRaceTest : public ::testing::Test {
 protected:
  WriteAroundRaceTest()
      : store_(std::make_unique<RealFileStore>(dir_.path())),
        file_(store_.open("f.bin", true)) {
    store_.inner().write(file_, 0, uniform(kPages * kPage, 'o'));
  }

  char stored(std::uint64_t page) {
    std::vector<std::byte> b(1);
    static_cast<void>(store_.inner().read(file_, page * kPage, b));
    return static_cast<char>(b[0]);
  }

  util::TempDir dir_{"clio-write-around"};
  LatchStore store_;
  FileId file_;
};

TEST_F(WriteAroundRaceTest, PageLoadedWhileTheWriteRunsTakesTheNewBytes) {
  // The large write is held before it reaches the store; meanwhile a
  // reader loads page 10 of its range, old bytes and all.  Once the write
  // lands, page 10's frame must hold the new bytes: it stays resident and
  // clean, so nothing else would ever replace them.
  BufferPool pool(store_,
                  {.page_size = kPage, .capacity_pages = 8, .shards = 1});
  store_.hold_next_write(SIZE_MAX);
  std::thread writer([&] {
    pool.write_around(file_, 0, uniform(kPages * kPage, 'N'));
  });
  store_.wait_until_held();
  {
    const auto guard = pool.pin(file_, 10);
    EXPECT_EQ(static_cast<char>(guard.data()[0]), 'o');
  }
  store_.release();
  writer.join();
  const auto guard = pool.pin(file_, 10);
  EXPECT_EQ(static_cast<char>(guard.data()[0]), 'N');
  EXPECT_EQ(static_cast<char>(guard.data()[kPage - 1]), 'N');
  EXPECT_EQ(pool.stats().misses, 1u);  // the reader's load, then a hit
  EXPECT_EQ(pool.stats().direct_write_calls, 1u);
}

TEST_F(WriteAroundRaceTest, WriteBackInFlightCannotLandOverTheNewBytes) {
  // Page 5 is dirty ('D') in a 2-frame pool.  A pin of another page
  // evicts it, and its write-back is held before it reaches the store.
  // The large write over page 5 must wait that write-back out: if it
  // landed first, the held write-back would then put 'D' over 'N'.  The
  // write-back is released once the large write has landed, or after
  // 250 ms, which is how long a write that waits is given.
  BufferPool pool(store_,
                  {.page_size = kPage, .capacity_pages = 2, .shards = 1});
  {
    auto guard = pool.pin(file_, 5);
    std::memset(guard.data().data(), 'D', kPage);
    guard.mark_dirty(kPage);
  }
  static_cast<void>(pool.pin(file_, 7));  // page 5 becomes the LRU victim
  store_.hold_next_write(kPage);
  std::thread evictor([&] { static_cast<void>(pool.pin(file_, 9)); });
  store_.wait_until_held();
  std::thread writer([&] {
    pool.write_around(file_, 0, uniform(kPages * kPage, 'N'));
  });
  const bool landed_first = store_.wait_for_landed(
      kPages * kPage, std::chrono::milliseconds(250));
  EXPECT_FALSE(landed_first)
      << "the large write reached the store while a write-back of its "
         "range was in flight";
  store_.release();
  evictor.join();
  writer.join();
  EXPECT_EQ(stored(5), 'N');
  EXPECT_EQ(stored(6), 'N');
  pool.flush_all();
  EXPECT_EQ(stored(5), 'N');
  pool.debug_validate();
}

TEST(WriteAroundConcurrencyTest, LargeWritesSmallReadsAndChurnStayCoherent) {
  // One thread writes spans of 64 pages or more, each after a small write
  // that leaves dirty pages in its range; a second reads small spans of
  // the same file, loading pages of ranges being written; a third reads
  // another file, so both files' pages are evicted and written back
  // throughout.  A small write copies into pinned frames, which a reader
  // of the same page would race, so small writes exclude reads; a large
  // write waits out the pins itself and runs beside them.  Every byte is
  // one generation's value, so a read may see old or new bytes but never
  // a value nobody wrote there.
  util::TempDir dir("clio-write-around");
  ManagedFsOptions options;
  options.page_size = kPage;
  options.pool_pages = 24;
  options.pool_shards = 4;
  ManagedFileSystem fs(std::make_unique<RealFileStore>(dir.path()), options);
  constexpr std::size_t kFilePages = 208;  // the last write ends by page 204
  std::vector<std::byte> shadow(kFilePages * kPage, std::byte{0});
  {
    auto f = fs.open("shared.bin", OpenMode::kTruncate);
    f.write(shadow);
    auto g = fs.open("churn.bin", OpenMode::kTruncate);
    g.write(uniform(64 * kPage, 'c'));
  }
  constexpr int kWrites = 60;
  std::shared_mutex small_writes;
  std::atomic<bool> writing{true};
  std::atomic<int> bad_bytes{0};
  std::thread writer([&] {
    auto f = fs.open("shared.bin", OpenMode::kReadWrite);
    for (int i = 1; i <= kWrites; ++i) {
      const std::uint64_t pos = (i * 7919u) % (kFilePages * kPage / 2);
      const std::size_t len = (64 + i % 40) * kPage + i % 7;
      const std::vector<std::byte> small(3 * kPage, static_cast<std::byte>(i));
      {
        std::unique_lock<std::shared_mutex> lock(small_writes);
        f.seek(pos + (i * 131u) % (len - small.size()));
        f.write(small);
      }
      const std::vector<std::byte> large(len, static_cast<std::byte>(i));
      f.seek(pos);
      f.write(large);
      std::memset(shadow.data() + pos, i, len);
      if (i % 10 == 0) fs.pool().flush_file(f.id());
    }
    writing = false;
  });
  std::thread reader([&] {
    auto f = fs.open("shared.bin", OpenMode::kRead);
    std::vector<std::byte> buf(5 * kPage);
    for (int i = 0; writing; ++i) {
      std::shared_lock<std::shared_mutex> lock(small_writes);
      f.seek((i * 613u) % (kFilePages * kPage - buf.size()));
      const std::size_t got = f.read(std::span(buf).first(1 + i % buf.size()));
      for (std::size_t k = 0; k < got; ++k) {
        if (static_cast<int>(buf[k]) > kWrites) bad_bytes++;
      }
    }
  });
  std::thread churner([&] {
    auto g = fs.open("churn.bin", OpenMode::kRead);
    std::vector<std::byte> buf(4 * kPage);
    for (int i = 0; writing; ++i) {
      g.seek((i * 577u) % (60 * kPage));
      static_cast<void>(g.read(buf));
    }
  });
  writer.join();
  reader.join();
  churner.join();
  EXPECT_EQ(bad_bytes.load(), 0);
  EXPECT_GE(fs.pool().stats().direct_write_calls, std::uint64_t{kWrites});
  fs.pool().debug_validate();
  auto f = fs.open("shared.bin", OpenMode::kRead);
  std::vector<std::byte> got(shadow.size());
  EXPECT_EQ(f.read(got), shadow.size());
  EXPECT_EQ(got, shadow);
  f.close();
  fs.pool().flush_all();
  fs.drop_caches();
  auto g = fs.open("shared.bin", OpenMode::kRead);
  EXPECT_EQ(g.read(got), shadow.size());
  EXPECT_EQ(got, shadow);
  fs.pool().debug_validate();
}

}  // namespace
}  // namespace clio::io
