// The coherence rule of BufferPool::write_around, one race at a time.  A
// write of kCoalescePages pages or more is one store write; the resident
// pages of its range take the new bytes before it (so no write-back can
// land older bytes over them) and again after it (so a page a reader
// loaded while it ran does not keep the old bytes).  Each test holds one
// store call on a latch to force its race, then checks the bytes.  The
// residency tests then place a span's resident pages where the around
// paths' per-shard pass could miss one: across shards, at the span's ends,
// under an unaligned head, dirty, and among more pages of the file
// outside the span than inside.
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
#include "util/fs.hpp"
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

/// One span of a 1,024-page file with chosen pages resident (some dirty)
/// in a 4-shard pool.  check() runs read_around and write_around over the
/// span and holds both to a shadow copy of the file.
class AroundResidencyTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kFilePages = 1024;

  AroundResidencyTest()
      : store_(dir_.path()),
        file_(store_.open("f.bin", true)),
        shadow_(kFilePages * kPage),
        pool_(store_, {.page_size = kPage, .capacity_pages = 1024,
                       .shards = 4}) {
    util::expected_sample_bytes(0, shadow_, /*seed=*/3);
    store_.write(file_, 0, shadow_);
  }

  void make_resident(std::uint64_t first, std::uint64_t count) {
    for (std::uint64_t p = first; p < first + count; ++p) {
      static_cast<void>(pool_.pin(file_, p));
    }
  }
  /// Page `p` becomes resident and dirty with bytes the store lacks.
  void make_dirty(std::uint64_t p) {
    auto guard = pool_.pin(file_, p);
    std::memset(guard.data().data(), static_cast<int>(0x80 + p % 100), kPage);
    guard.mark_dirty(kPage);
    std::memset(shadow_.data() + p * kPage, static_cast<int>(0x80 + p % 100),
                kPage);
  }
  std::size_t shards_of_resident(std::uint64_t first, std::uint64_t last) {
    std::vector<bool> seen(pool_.shard_count(), false);
    for (std::uint64_t p = first; p <= last; ++p) {
      if (pool_.contains(file_, p)) {
        seen[RunKeyHash{}(RunKey{file_, p / BufferPool::kRunPages}) %
             pool_.shard_count()] = true;
      }
    }
    return static_cast<std::size_t>(std::count(seen.begin(), seen.end(), true));
  }

  /// A span ManagedFile sends around the pool: kCoalescePages or more.
  void check(std::uint64_t offset, std::size_t length) {
    ASSERT_GE((offset + length - 1) / kPage - offset / kPage + 1,
              BufferPool::kCoalescePages);
    check_span(offset, length);
  }

  void check_span(std::uint64_t offset, std::size_t length) {
    const std::uint64_t first = offset / kPage;
    const std::uint64_t last = (offset + length - 1) / kPage;
    std::size_t resident = 0;
    std::size_t runs = 0;
    for (std::uint64_t p = first; p <= last; ++p) {
      if (pool_.contains(file_, p)) {
        ++resident;
      } else if (p == first || pool_.contains(file_, p - 1)) {
        ++runs;
      }
    }
    // read_around: resident pages (dirty ones' bytes included) come from
    // their frames, each run of the others is one store read.
    const PoolStats before = pool_.stats();
    std::vector<std::byte> got(length);
    pool_.read_around(file_, offset, got);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), shadow_.begin() + offset));
    const PoolStats after = pool_.stats();
    EXPECT_EQ(after.hits - before.hits, resident);
    EXPECT_EQ(after.direct_read_calls - before.direct_read_calls, runs);
    EXPECT_EQ(after.misses, before.misses);
    // write_around: the store and every resident page of the range hold
    // the new bytes; a dirty page stays dirty, so a flush keeps them.
    std::vector<std::byte> data(length);
    util::expected_sample_bytes(offset, data, /*seed=*/99);
    pool_.write_around(file_, offset, data);
    std::copy(data.begin(), data.end(), shadow_.begin() + offset);
    std::vector<std::byte> stored(length);
    EXPECT_EQ(store_.read(file_, offset, stored), length);
    EXPECT_EQ(stored, data);
    for (std::uint64_t p = first; p <= last; ++p) {
      if (!pool_.contains(file_, p)) continue;
      const auto guard = pool_.pin(file_, p);
      EXPECT_TRUE(std::equal(guard.data().begin(), guard.data().end(),
                             shadow_.begin() + p * kPage))
          << "resident page " << p << " missed the new bytes";
    }
    pool_.flush_all();
    std::vector<std::byte> whole(shadow_.size());
    EXPECT_EQ(store_.read(file_, 0, whole), whole.size());
    EXPECT_EQ(whole, shadow_);
    pool_.debug_validate();
  }

  util::TempDir dir_{"clio-around"};
  RealFileStore store_;
  FileId file_;
  std::vector<std::byte> shadow_;
  BufferPool pool_;
};

TEST_F(AroundResidencyTest, PagesInSeveralShardsAndAtBothEnds) {
  make_resident(100, 1);
  make_resident(179, 1);
  make_resident(120, 3);
  make_resident(150, 2);
  ASSERT_GE(shards_of_resident(100, 179), 2u);
  check(100 * kPage, 80 * kPage);
}

TEST_F(AroundResidencyTest, PageUnderAnUnalignedHeadAndTail) {
  make_resident(100, 1);
  make_resident(140, 1);
  make_resident(180, 1);
  check(100 * kPage + 37, 80 * kPage + 5);
}

TEST_F(AroundResidencyTest, DirtyPageBytesWinInTheRead) {
  make_dirty(110);
  make_dirty(111);
  make_resident(130, 1);
  make_dirty(163);  // the span's last page
  check(100 * kPage, 64 * kPage);
}

TEST_F(AroundResidencyTest, MorePagesOfTheFileOutsideTheSpanThanInside) {
  // Each shard holds about 100 pages of the file against about 20 of the
  // span.
  make_resident(101, 1);
  make_dirty(150);
  make_resident(179, 1);
  make_resident(0, 2);
  make_resident(300, 400);
  ASSERT_GE(shards_of_resident(100, 179), 2u);
  check(100 * kPage + 11, 80 * kPage - 20);
}

TEST_F(AroundResidencyTest, SpanWithNoResidentPageIsOneStoreRead) {
  make_resident(0, 64);
  make_resident(500, 64);
  make_dirty(99);
  make_dirty(180);
  const PoolStats before = pool_.stats();
  check(100 * kPage, 80 * kPage);
  EXPECT_EQ(pool_.stats().direct_read_calls, before.direct_read_calls + 1);
}

TEST_F(AroundResidencyTest, WholeSpanResident) {
  make_resident(100, 80);
  make_dirty(140);
  check(100 * kPage + 3, 79 * kPage);
}

// Runs are BufferPool::kRunPages (16) pages: run 6 is pages 96..111, run
// 7 is 112..127, and so on.

TEST_F(AroundResidencyTest, SpanStartsAndEndsMidRun) {
  // Pages 99..172: the first and last runs are only partly in the span,
  // and each holds resident pages on both sides of the span's edge.
  make_resident(97, 2);    // run 6, before the span
  make_resident(99, 1);    // the span's first page
  make_dirty(105);
  make_dirty(172);         // the span's last page, in run 10
  make_resident(173, 3);   // run 10, after the span
  check(99 * kPage + 17, 74 * kPage - 30);
}

TEST_F(AroundResidencyTest, ResidentPagesOnBothSidesOfARunBoundary) {
  make_resident(111, 2);  // the last page of run 6, the first of run 7
  make_dirty(127);        // the last page of run 7
  make_dirty(128);        // the first of run 8
  make_resident(143, 1);
  make_resident(159, 2);
  ASSERT_GE(shards_of_resident(100, 179), 2u);
  check(100 * kPage, 80 * kPage);
}

TEST_F(AroundResidencyTest, SpanCoveringExactlyOneRun) {
  // Pages 112..127, run 7 whole.  ManagedFile sends no span this short
  // around the pool, but the pass must visit the run's first and last
  // slots and nothing of its neighbours.
  make_resident(111, 2);
  make_dirty(119);
  make_resident(127, 2);
  check_span(112 * kPage, BufferPool::kRunPages * kPage);
}

}  // namespace
}  // namespace clio::io
