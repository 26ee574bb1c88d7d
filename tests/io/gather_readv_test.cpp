// Coverage for the coalesced read path: BackingStore::readv batching in
// pin_span's request gather, EOF clamping and failure unwinding.  Each case
// drives the gather through pin_span and drops the guard it returns.  The
// concurrency case doubles as a TSan target in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/file_store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

/// In-memory BackingStore that counts read/readv calls and can inject read
/// failures, for asserting how pin_span's gather batches its backing
/// accesses.
class CountingReadStore final : public BackingStore {
 public:
  FileId open(const std::string& name, bool create) override {
    if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
    util::check<util::IoError>(create, "CountingReadStore: no such file");
    const auto id = static_cast<FileId>(files_.size());
    files_.emplace_back();
    by_name_.emplace(name, id);
    return id;
  }
  void close(FileId) override {}
  [[nodiscard]] std::uint64_t size(FileId id) const override {
    return files_.at(id).size();
  }
  void truncate(FileId id, std::uint64_t new_size) override {
    files_.at(id).resize(new_size);
  }
  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    maybe_fail();
    read_calls++;
    return copy_out(id, offset, out);
  }
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override {
    maybe_fail();
    readv_calls++;
    readv_parts.push_back(parts.size());
    std::size_t total = 0;
    for (const auto& part : parts) {
      const std::size_t n = copy_out(id, offset + total, part);
      total += n;
      if (n < part.size()) break;
    }
    return total;
  }
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override {
    auto& file = files_.at(id);
    if (offset + data.size() > file.size()) file.resize(offset + data.size());
    std::memcpy(file.data() + offset, data.data(), data.size());
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return by_name_.contains(name);
  }
  [[nodiscard]] FileId lookup(const std::string& name) const override {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kInvalidFile : it->second;
  }
  void remove(const std::string& name) override { by_name_.erase(name); }

  std::uint64_t read_calls = 0;
  std::uint64_t readv_calls = 0;
  std::vector<std::size_t> readv_parts;  ///< pages per readv, in order
  int fail_reads = 0;  ///< next N read/readv calls throw

 private:
  void maybe_fail() {
    if (fail_reads > 0) {
      fail_reads--;
      throw util::IoError("CountingReadStore: injected read failure");
    }
  }

  std::size_t copy_out(FileId id, std::uint64_t offset,
                       std::span<std::byte> out) {
    const auto& data = files_.at(id);
    if (offset >= data.size()) return 0;
    const std::size_t n =
        std::min<std::size_t>(out.size(), data.size() - offset);
    std::memcpy(out.data(), data.data() + offset, n);
    return n;
  }

  std::vector<std::vector<std::byte>> files_;
  std::unordered_map<std::string, FileId> by_name_;
};

/// `pages` full pages of recognizable per-page content plus `tail_bytes`
/// of 'T' after the last full page.
FileId make_file(CountingReadStore& store, std::size_t page_size,
                 std::size_t pages, std::size_t tail_bytes = 0) {
  const FileId file = store.open("data.bin", true);
  std::string content;
  for (std::size_t p = 0; p < pages; ++p) {
    content += std::string(page_size, char('a' + p % 26));
  }
  content += std::string(tail_bytes, 'T');
  store.write(file, 0, as_bytes(content));
  return file;
}

/// Pins every page of [first, last] as a request span does — each pin
/// released before the next — and returns how many new misses it counted.
std::uint64_t pin_window(BufferPool& pool, FileId file, std::uint64_t first,
                         std::uint64_t last) {
  const std::uint64_t before = pool.stats().misses;
  for (std::uint64_t p = first; p <= last; ++p) {
    static_cast<void>(pool.pin_span(file, p, last));
  }
  return pool.stats().misses - before;
}

// Windows in the 4-shard cases start mid-run, at kMid, so they cover the
// end of run 0 and the start of run 1, which the file's first runs put in
// different shards.
constexpr std::uint64_t kMid = BufferPool::kRunPages / 2;

// ------------------------------------------------------------ batching ----

TEST(GatherReadv, SequentialWindowIssuesOneGatherRead) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 32);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  constexpr std::size_t kWindow = 16;
  static_cast<void>(pool.pin_span(file, kMid, kMid + kWindow - 1));
  // The whole sequential window must go out as a single vectored gather —
  // not one backing read per page, the pre-coalescing behaviour.
  EXPECT_EQ(store.readv_calls, 1u);
  EXPECT_EQ(store.read_calls, 0u);
  // The batching ratio is observable from PoolStats alone, not just from
  // instrumented test stores: 16 pages over 1 backing call.
  EXPECT_EQ(pool.stats().gather_read_calls, 1u);
  EXPECT_EQ(pool.stats().gather_read_pages, kWindow);
  EXPECT_EQ(pool.resident_pages(), kWindow);
  EXPECT_EQ(pool.stats().misses, kWindow);
  // Page kMid's first pin was the request's; every later pin loads nothing.
  for (std::uint64_t p = kMid; p < kMid + kWindow; ++p) {
    auto g = pool.pin(file, p);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p % 26)) << p;
    EXPECT_EQ(g.valid_bytes(), 256u);
  }
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, kWindow);
  EXPECT_EQ(store.readv_calls + store.read_calls, 1u);
}

TEST(GatherReadv, ResidentPagesSplitTheWindowIntoRuns) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 32);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  EXPECT_TRUE(pool.prefetch(file, kMid + 4));  // single-page path: one read()
  EXPECT_EQ(store.read_calls, 1u);
  // Page kMid + 4 is resident, so the window splits into two runs.
  EXPECT_EQ(pin_window(pool, file, kMid, kMid + 9), 9u);
  EXPECT_EQ(store.readv_calls, 2u);
  EXPECT_EQ(store.read_calls, 1u);
  EXPECT_EQ(pool.resident_pages(), 10u);
}

TEST(GatherReadv, CoalesceLimitBoundsRunLength) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 160);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 256,
                                          .shards = 1});
  // One cold window of 160 pages splits at the 64-page coalescing limit.
  static_cast<void>(pool.pin_span(file, 0, 159));
  EXPECT_EQ(store.readv_parts, (std::vector<std::size_t>{64, 64, 32}));
  EXPECT_EQ(pool.stats().gather_read_calls, 3u);
  EXPECT_EQ(pool.stats().gather_read_pages, 160u);
  EXPECT_EQ(pool.stats().misses, 160u);
}

// ---------------------------------------------------------- accounting ----

TEST(GatherReadv, PinSpanGathersTheColdSpanAsMisses) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 32);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  constexpr std::uint64_t kLast = kMid + 15;
  {
    auto g = pool.pin_span(file, kMid, kLast);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + kMid));
  }
  // The whole cold span arrived by one gather, before any copy.
  EXPECT_EQ(store.readv_calls, 1u);
  EXPECT_EQ(store.read_calls, 0u);
  EXPECT_EQ(pool.resident_pages(), 16u);
  // The request needs every page: misses, not seek touches.
  EXPECT_EQ(pool.stats().misses, 16u);
  EXPECT_EQ(pool.stats().prefetches, 0u);
  EXPECT_EQ(pool.stats().gather_read_pages, 16u);
  // The first pin of a gathered page is its miss, not a hit; later pins
  // are hits.
  for (std::uint64_t p = kMid + 1; p <= kLast; ++p) {
    auto g = pool.pin_span(file, p, kLast);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p % 26)) << p;
  }
  EXPECT_EQ(pool.stats().hits, 0u);
  static_cast<void>(pool.pin(file, kMid + 3));
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(store.readv_calls + store.read_calls, 1u);
  pool.debug_validate();
}

TEST(GatherReadv, PinSpanOfOnePageOrAResidentPageIssuesNoGather) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 32);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  // A one-page span is a plain demand load, as pin() does.
  static_cast<void>(pool.pin_span(file, kMid + 3, kMid + 3));
  EXPECT_EQ(store.read_calls, 1u);
  EXPECT_EQ(store.readv_calls, 0u);
  // A resident first page is a hit: the cold pages after it wait until
  // the copy reaches them.
  static_cast<void>(pool.pin_span(file, kMid + 3, kMid + 10));
  EXPECT_EQ(store.read_calls + store.readv_calls, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

// ---------------------------------------------------------- EOF clamps ----

TEST(GatherReadv, WindowIsClampedToEndOfFile) {
  CountingReadStore store;
  // 17 full pages plus a 100-byte tail page: pages 0..17 exist, 18+ do not.
  const FileId file = make_file(store, 256, 17, 100);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  static_cast<void>(pool.pin_span(file, 14, 21));
  EXPECT_EQ(pool.stats().misses, 4u);  // pages 14..17 only
  EXPECT_EQ(store.readv_calls, 1u);
  EXPECT_FALSE(pool.contains(file, 18));
  EXPECT_EQ(pool.resident_pages(), 4u);
  auto tail = pool.pin(file, 17);
  EXPECT_EQ(tail.valid_bytes(), 100u);
  EXPECT_EQ(static_cast<char>(tail.data()[99]), 'T');
  EXPECT_EQ(tail.data()[100], std::byte{0});  // zero past the valid extent
}

TEST(GatherReadv, WindowEntirelyPastEofGathersNothing) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 20);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  // The gather loads nothing past EOF, and the page the request pins is
  // a zero page installed without a store read.
  {
    auto g = pool.pin_span(file, 100, 107);
    EXPECT_EQ(g.valid_bytes(), 0u);
    EXPECT_EQ(g.data()[0], std::byte{0});
  }
  EXPECT_EQ(store.readv_calls, 0u);
  EXPECT_EQ(store.read_calls, 0u);
  EXPECT_EQ(pool.stats().gather_read_pages, 0u);
  EXPECT_EQ(pool.resident_pages(), 1u);
  EXPECT_FALSE(pool.contains(file, 101));
  // An empty file never gathers either.
  const FileId empty = store.open("empty.bin", true);
  static_cast<void>(pool.pin_span(empty, 0, 7));
  EXPECT_EQ(store.readv_calls + store.read_calls, 0u);
  EXPECT_EQ(pool.stats().gather_read_pages, 0u);
  EXPECT_EQ(pool.resident_pages(), 2u);
  EXPECT_FALSE(pool.contains(empty, 1));
}

// ------------------------------------------------------------ failures ----

TEST(GatherReadv, FailedGatherLeavesNoHalfValidFramesResident) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 32);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  constexpr std::uint64_t kFirst = kMid + 4;  // 8 pages across runs 0 and 1
  constexpr std::uint64_t kLast = kFirst + 7;
  store.fail_reads = 1;
  EXPECT_THROW(static_cast<void>(pool.pin_span(file, kFirst, kLast)),
               util::IoError);
  EXPECT_EQ(pool.resident_pages(), 0u);
  pool.debug_validate();  // the unwind left no leaked latch or frame
  // A failing demand load reports its error and unwinds the same way.
  store.fail_reads = 1;
  EXPECT_THROW(static_cast<void>(pool.pin(file, kFirst)), util::IoError);
  EXPECT_FALSE(pool.contains(file, kFirst));
  pool.debug_validate();
  // The frames were returned to the pool: a retry loads everything fresh.
  const std::uint64_t misses = pool.stats().misses;
  EXPECT_EQ(pin_window(pool, file, kFirst, kLast), 8u);
  EXPECT_EQ(pool.stats().misses - misses, 8u);
  EXPECT_EQ(pool.stats().gather_read_pages, 8u);
  for (std::uint64_t p = kFirst; p <= kLast; ++p) {
    auto g = pool.pin(file, p);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p % 26)) << p;
  }
}

TEST(GatherReadv, FailedLoadsCountEveryPageTheRequestNeededAsAMiss) {
  // PoolStats::misses counts the pages a request needed that were not
  // resident, whether or not their load then succeeded: a failed one-page
  // pin and a failed 8-page pin_span count alike.
  CountingReadStore store;
  const FileId file = make_file(store, 256, 32);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  store.fail_reads = 1;
  EXPECT_THROW(static_cast<void>(pool.pin(file, kMid)), util::IoError);
  EXPECT_EQ(pool.stats().misses, 1u);
  store.fail_reads = 1;
  EXPECT_THROW(static_cast<void>(pool.pin_span(file, kMid + 4, kMid + 11)),
               util::IoError);
  EXPECT_EQ(pool.stats().misses, 1u + 8u);
  EXPECT_EQ(pool.stats().gather_read_pages, 0u);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.resident_pages(), 0u);
  pool.debug_validate();
}

TEST(GatherReadv, FailureInSecondRunKeepsFirstRunResident) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 136);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 256,
                                          .shards = 1});
  // A completed gather's pages are published and stay resident; a later
  // failed gather must unwind only its own claimed frames.
  EXPECT_EQ(pin_window(pool, file, 0, 63), 64u);  // run 1 resident
  store.fail_reads = 1;
  // Pages 64..135 are two runs split at the 64-page limit; the first
  // fails, so neither is loaded.
  EXPECT_THROW(static_cast<void>(pool.pin_span(file, 64, 135)),
               util::IoError);
  EXPECT_EQ(store.readv_parts, (std::vector<std::size_t>{64}));
  EXPECT_EQ(pool.resident_pages(), 64u);  // only run 1 remains
  for (std::uint64_t p = 0; p < 64; ++p) EXPECT_TRUE(pool.contains(file, p));
  for (std::uint64_t p = 64; p < 136; ++p) {
    EXPECT_FALSE(pool.contains(file, p));
  }
  pool.debug_validate();
}

// ----------------------------------------------------------- contention ----

TEST(GatherReadv, ConcurrentGatherAndPinOfSameRangeStayCoherent) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  constexpr std::uint64_t kPages = 64;
  std::string content;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    content += std::string(256, char('a' + p % 26));
  }
  store.write(file, 0, as_bytes(content));
  // Pool smaller than the file: gathers and single-page pins contend for
  // frames and evict each other's pages while gathers are in flight.
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  std::atomic<int> bad_bytes{0};
  std::atomic<bool> stop{false};
  const auto check = [&](const BufferPool::PageGuard& g, std::uint64_t page) {
    if (static_cast<char>(g.data()[0]) != char('a' + page % 26)) bad_bytes++;
  };
  std::thread gatherer([&] {
    while (!stop.load()) {
      for (std::uint64_t p = 0; p < kPages; p += 8) {
        for (std::uint64_t q = p; q < p + 8; ++q) {
          check(pool.pin_span(file, q, p + 7), q);
        }
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(100 + t);
      for (int i = 0; i < 3000; ++i) {
        const std::uint64_t page = rng.uniform_u64(kPages);
        check(pool.pin(file, page), page);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  gatherer.join();
  EXPECT_EQ(bad_bytes.load(), 0);
  pool.debug_validate();
}

}  // namespace
}  // namespace clio::io
