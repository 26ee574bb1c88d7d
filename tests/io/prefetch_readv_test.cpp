// Coverage for the coalesced read path: BackingStore::readv batching in
// prefetch_range and pin_span, EOF clamping and failure unwinding.  The concurrency
// case doubles as a TSan target in CI.
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
/// failures, for asserting how prefetch_range batches its backing accesses.
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

// ------------------------------------------------------------ batching ----

TEST(PrefetchReadv, SequentialWindowIssuesOneGatherRead) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 16);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  constexpr std::size_t kWindow = 16;
  EXPECT_EQ(pool.prefetch_range(file, 0, kWindow), kWindow);
  // The whole sequential window must go out as a single vectored gather —
  // not one backing read per page, the pre-coalescing behaviour.
  EXPECT_EQ(store.readv_calls, 1u);
  EXPECT_EQ(store.read_calls, 0u);
  // The batching ratio is observable from PoolStats alone now, not just
  // from instrumented test stores: 16 pages over 1 backing call.
  EXPECT_EQ(pool.stats().gather_read_calls, 1u);
  EXPECT_EQ(pool.stats().gather_read_pages, kWindow);
  EXPECT_EQ(pool.resident_pages(), kWindow);
  EXPECT_EQ(pool.stats().prefetches, kWindow);
  for (std::uint64_t p = 0; p < kWindow; ++p) {
    auto g = pool.pin(file, p);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p % 26)) << p;
    EXPECT_EQ(g.valid_bytes(), 256u);
  }
  EXPECT_EQ(pool.stats().hits, kWindow);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(PrefetchReadv, ResidentPagesSplitTheWindowIntoRuns) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 16);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  EXPECT_TRUE(pool.prefetch(file, 4));  // single-page path: one read()
  EXPECT_EQ(store.read_calls, 1u);
  // Page 4 is resident, so the window splits into runs [0..3] and [5..9].
  EXPECT_EQ(pool.prefetch_range(file, 0, 10), 9u);
  EXPECT_EQ(store.readv_calls, 2u);
  EXPECT_EQ(pool.resident_pages(), 10u);
}

TEST(PrefetchReadv, CoalesceLimitBoundsRunLength) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 160);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 256,
                                          .shards = 1});
  // One cold window of 160 pages splits at the 64-page coalescing limit.
  EXPECT_EQ(pool.prefetch_range(file, 0, 160), 160u);
  EXPECT_EQ(store.readv_parts, (std::vector<std::size_t>{64, 64, 32}));
  EXPECT_EQ(pool.stats().gather_read_calls, 3u);
  EXPECT_EQ(pool.stats().gather_read_pages, 160u);
}

// ------------------------------------------------------- demand spans ----

TEST(PrefetchReadv, PinSpanGathersTheColdSpanAsMisses) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 16);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  {
    auto g = pool.pin_span(file, 0, 15);
    EXPECT_EQ(static_cast<char>(g.data()[0]), 'a');
  }
  // The whole cold span arrived by one gather, before any copy.
  EXPECT_EQ(store.readv_calls, 1u);
  EXPECT_EQ(store.read_calls, 0u);
  EXPECT_EQ(pool.resident_pages(), 16u);
  // The request needs every page: misses, not prefetches.
  EXPECT_EQ(pool.stats().misses, 16u);
  EXPECT_EQ(pool.stats().prefetches, 0u);
  EXPECT_EQ(pool.stats().gather_read_pages, 16u);
  // The first pin of a gathered page is its miss, not a hit; later pins
  // are hits.
  for (std::uint64_t p = 1; p < 16; ++p) {
    auto g = pool.pin_span(file, p, 15);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p)) << p;
  }
  EXPECT_EQ(pool.stats().hits, 0u);
  static_cast<void>(pool.pin(file, 3));
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(store.readv_calls + store.read_calls, 1u);
  pool.debug_validate();
}

TEST(PrefetchReadv, PinSpanOfOnePageOrAResidentPageIssuesNoGather) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 16);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  // A one-page span is a plain demand load, as pin() does.
  static_cast<void>(pool.pin_span(file, 3, 3));
  EXPECT_EQ(store.read_calls, 1u);
  EXPECT_EQ(store.readv_calls, 0u);
  // A resident first page is a hit: the cold pages after it wait until
  // the copy reaches them.
  static_cast<void>(pool.pin_span(file, 3, 10));
  EXPECT_EQ(store.read_calls + store.readv_calls, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

// ---------------------------------------------------------- EOF clamps ----

TEST(PrefetchReadv, WindowIsClampedToEndOfFile) {
  CountingReadStore store;
  // 5 full pages plus a 100-byte tail page: pages 0..5 exist, 6+ do not.
  const FileId file = make_file(store, 256, 5, 100);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  EXPECT_EQ(pool.prefetch_range(file, 4, 8), 2u);  // pages 4 and 5 only
  EXPECT_EQ(store.readv_calls, 1u);
  EXPECT_FALSE(pool.contains(file, 6));
  EXPECT_EQ(pool.resident_pages(), 2u);
  auto tail = pool.pin(file, 5);
  EXPECT_EQ(tail.valid_bytes(), 100u);
  EXPECT_EQ(static_cast<char>(tail.data()[99]), 'T');
  EXPECT_EQ(tail.data()[100], std::byte{0});  // zero past the valid extent
}

TEST(PrefetchReadv, WindowEntirelyPastEofLoadsNothing) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 4);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  EXPECT_EQ(pool.prefetch_range(file, 100, 8), 0u);
  EXPECT_EQ(store.readv_calls + store.read_calls, 0u);
  EXPECT_EQ(pool.resident_pages(), 0u);
  // An empty file never prefetches either.
  const FileId empty = store.open("empty.bin", true);
  EXPECT_EQ(pool.prefetch_range(empty, 0, 8), 0u);
  EXPECT_EQ(pool.resident_pages(), 0u);
}

// ------------------------------------------------------------ failures ----

TEST(PrefetchReadv, FailedGatherLeavesNoHalfValidFramesResident) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 8);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  store.fail_reads = 1;
  EXPECT_THROW(static_cast<void>(pool.prefetch_range(file, 0, 8)),
               util::IoError);
  EXPECT_EQ(pool.resident_pages(), 0u);
  // Stats stay exact: nothing was loaded, so nothing counts as prefetched.
  EXPECT_EQ(pool.stats().prefetches, 0u);
  pool.debug_validate();  // the unwind left no leaked latch or frame
  // A failing demand load reports its error and unwinds the same way.
  store.fail_reads = 1;
  EXPECT_THROW(static_cast<void>(pool.pin(file, 0)), util::IoError);
  EXPECT_FALSE(pool.contains(file, 0));
  pool.debug_validate();
  // The frames were returned to the pool: a retry loads everything fresh.
  EXPECT_EQ(pool.prefetch_range(file, 0, 8), 8u);
  EXPECT_EQ(pool.stats().prefetches, 8u);
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto g = pool.pin(file, p);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p)) << p;
  }
}

TEST(PrefetchReadv, FailureInSecondRunKeepsFirstRunResident) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 136);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 256,
                                          .shards = 1});
  // A completed gather's pages are published and stay resident; a later
  // failed gather must unwind only its own claimed frames.
  EXPECT_EQ(pool.prefetch_range(file, 0, 64), 64u);  // run 1 resident
  store.fail_reads = 1;
  // Pages 64..135 are two runs split at the 64-page limit; the first
  // fails, so neither is loaded.
  EXPECT_THROW(static_cast<void>(pool.prefetch_range(file, 64, 72)),
               util::IoError);
  EXPECT_EQ(store.readv_parts, (std::vector<std::size_t>{64}));
  EXPECT_EQ(pool.resident_pages(), 64u);  // only run 1 remains
  for (std::uint64_t p = 0; p < 64; ++p) EXPECT_TRUE(pool.contains(file, p));
  for (std::uint64_t p = 64; p < 136; ++p) {
    EXPECT_FALSE(pool.contains(file, p));
  }
}

// ----------------------------------------------------------- contention ----

TEST(PrefetchReadv, ConcurrentPrefetchAndPinOfSameRangeStayCoherent) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  constexpr std::uint64_t kPages = 64;
  std::string content;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    content += std::string(256, char('a' + p % 26));
  }
  store.write(file, 0, as_bytes(content));
  // Pool smaller than the file: prefetch and demand pins contend for
  // frames and evict each other's pages while gathers are in flight.
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  std::atomic<int> bad_bytes{0};
  std::atomic<bool> stop{false};
  std::thread prefetcher([&] {
    while (!stop.load()) {
      for (std::uint64_t p = 0; p < kPages; p += 8) {
        static_cast<void>(pool.prefetch_range(file, p, 8));
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(100 + t);
      for (int i = 0; i < 3000; ++i) {
        const std::uint64_t page = rng.uniform_u64(kPages);
        auto g = pool.pin(file, page);
        if (static_cast<char>(g.data()[0]) != char('a' + page % 26)) {
          bad_bytes++;
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  prefetcher.join();
  EXPECT_EQ(bad_bytes.load(), 0);
}

}  // namespace
}  // namespace clio::io
