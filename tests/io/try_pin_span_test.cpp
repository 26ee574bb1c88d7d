// BufferPool::try_pin_span, the probe a thread that must not block (the
// server's event loop) pins a file's pages with: all or nothing, never a
// load, never a wait, and a miss leaves the pool exactly as it was.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/store_decorator.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

constexpr std::size_t kPage = 256;
constexpr std::uint64_t kPages = 4;
/// The span's first page.  Its pages end run 2 and start run 3, which the
/// file's runs put in different shards of the 2-shard pool.
constexpr std::uint64_t kFirst = 3 * BufferPool::kRunPages - 2;

/// Counts backing reads and can hold the next one on a latch, so a test
/// can keep a page mid-load (io_busy) for as long as it likes.
class LatchReadStore final : public StoreDecorator {
 public:
  using StoreDecorator::StoreDecorator;

  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++reads_;
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
    std::lock_guard<std::mutex> lock(mutex_);
    ++reads_;
    return StoreDecorator::readv(id, offset, parts);
  }

  void hold_next_read() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
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
  std::uint64_t reads() {
    std::lock_guard<std::mutex> lock(mutex_);
    return reads_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
  bool released_ = false;
  std::uint64_t reads_ = 0;
};

void expect_same_stats(const PoolStats& a, const PoolStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.prefetches, b.prefetches);
  EXPECT_EQ(a.gather_read_calls, b.gather_read_calls);
  EXPECT_EQ(a.gather_read_pages, b.gather_read_pages);
}

class TryPinSpanTest : public ::testing::Test {
 protected:
  TryPinSpanTest()
      : store_(std::make_unique<RealFileStore>(dir_.path())),
        pool_(store_, BufferPoolConfig{.page_size = kPage,
                                       .capacity_pages = 8,
                                       .shards = 2}) {
    file_ = store_.open("data.bin", true);
    // The span's page i holds 'a' + i; the pages before it hold '.'.
    std::string content(kFirst * kPage, '.');
    for (std::uint64_t i = 0; i < kPages; ++i) {
      content += std::string(kPage, static_cast<char>('a' + i));
    }
    store_.write(file_, 0,
                 std::as_bytes(std::span(content.data(), content.size())));
  }

  /// Loads the span's page `i`.
  void load(std::uint64_t i) {
    static_cast<void>(pool_.pin(file_, kFirst + i));
  }

  util::TempDir dir_{"clio-try-pin"};
  LatchReadStore store_;
  BufferPool pool_;
  FileId file_ = kInvalidFile;
};

TEST_F(TryPinSpanTest, AllResidentSpanPinsEveryPageAsAHit) {
  for (std::uint64_t p = 0; p < kPages; ++p) load(p);
  const PoolStats before = pool_.stats();
  const std::uint64_t reads = store_.reads();
  {
    const auto guards = pool_.try_pin_span(file_, kFirst, kFirst + kPages - 1);
    ASSERT_EQ(guards.size(), kPages);
    for (std::uint64_t p = 0; p < kPages; ++p) {
      EXPECT_EQ(static_cast<char>(guards[p].data()[0]), 'a' + p);
    }
    pool_.debug_validate(/*expect_unpinned=*/false);
  }
  EXPECT_EQ(pool_.stats().hits, before.hits + kPages);
  EXPECT_EQ(pool_.stats().misses, before.misses);
  EXPECT_EQ(store_.reads(), reads);
  pool_.debug_validate();  // the guards dropped every pin
}

TEST_F(TryPinSpanTest, OneColdPageLeavesThePoolAsItWas) {
  // The span's pages 0..1 arrive by one demand gather, so page 1 still
  // owes its first pin the miss the gather counted; page 2 stays cold.
  static_cast<void>(pool_.pin_span(file_, kFirst, kFirst + 1));
  load(3);
  const PoolStats before = pool_.stats();
  const std::uint64_t reads = store_.reads();
  EXPECT_TRUE(pool_.try_pin_span(file_, kFirst, kFirst + kPages - 1).empty());
  expect_same_stats(pool_.stats(), before);
  EXPECT_EQ(store_.reads(), reads);  // nothing loaded
  EXPECT_FALSE(pool_.contains(file_, kFirst + 2));
  pool_.debug_validate();  // no pin left behind
  // Page 1's miss is still owed: its first pin counts no hit.
  load(1);
  EXPECT_EQ(pool_.stats().hits, before.hits);
}

TEST_F(TryPinSpanTest, PageMidLoadReturnsAtOnceWithoutWaiting) {
  load(0);
  load(1);
  load(3);
  store_.hold_next_read();
  std::thread loader([&] { load(2); });  // parks mid-load: io_busy
  store_.wait_until_held();
  const PoolStats before = pool_.stats();
  const std::uint64_t reads = store_.reads();
  // A probe that waited on the load would not return before release().
  auto probe = std::async(std::launch::async, [&] {
    return pool_.try_pin_span(file_, kFirst, kFirst + kPages - 1).empty();
  });
  const auto status = probe.wait_for(std::chrono::milliseconds(500));
  EXPECT_EQ(status, std::future_status::ready)
      << "try_pin_span waited on a page's load";
  if (status == std::future_status::ready) {
    EXPECT_TRUE(probe.get());
    expect_same_stats(pool_.stats(), before);
    EXPECT_EQ(store_.reads(), reads);
  }
  store_.release();
  loader.join();
  EXPECT_EQ(store_.reads(), reads);  // the probe loaded nothing
  pool_.debug_validate();
}

}  // namespace
}  // namespace clio::io
