#include "io/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

/// In-memory BackingStore that counts backing accesses, for asserting that
/// flush coalescing issues fewer write calls than dirty pages.
class CountingStore final : public BackingStore {
 public:
  FileId open(const std::string& name, bool create) override {
    if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
    util::check<util::IoError>(create, "CountingStore: no such file");
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
    read_calls++;
    const auto& data = files_.at(id);
    if (offset >= data.size()) return 0;
    const std::size_t n =
        std::min<std::size_t>(out.size(), data.size() - offset);
    std::memcpy(out.data(), data.data() + offset, n);
    return n;
  }
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override {
    maybe_fail();
    write_calls++;
    pages_written += 1;
    auto& file = files_.at(id);
    if (offset + data.size() > file.size()) file.resize(offset + data.size());
    std::memcpy(file.data() + offset, data.data(), data.size());
  }
  void writev(FileId id, std::uint64_t offset,
              std::span<const std::span<const std::byte>> parts) override {
    maybe_fail();
    writev_calls++;
    writev_parts.push_back(parts.size());
    pages_written += parts.size();
    auto& file = files_.at(id);
    std::uint64_t total = 0;
    for (const auto& p : parts) total += p.size();
    if (offset + total > file.size()) file.resize(offset + total);
    for (const auto& p : parts) {
      std::memcpy(file.data() + offset, p.data(), p.size());
      offset += p.size();
    }
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return by_name_.contains(name);
  }
  [[nodiscard]] FileId lookup(const std::string& name) const override {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kInvalidFile : it->second;
  }
  void remove(const std::string& name) override { by_name_.erase(name); }

  std::atomic<std::uint64_t> read_calls{0};
  std::uint64_t write_calls = 0;
  std::uint64_t writev_calls = 0;
  std::vector<std::size_t> writev_parts;  ///< pages per writev, in order
  std::uint64_t pages_written = 0;
  int fail_writes = 0;  ///< next N write/writev calls throw

 private:
  void maybe_fail() {
    if (fail_writes > 0) {
      fail_writes--;
      throw util::IoError("CountingStore: injected write failure");
    }
  }

  std::vector<std::vector<std::byte>> files_;
  std::unordered_map<std::string, FileId> by_name_;
};

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest()
      : store_(dir_.path()),
        pool_(store_, BufferPoolConfig{.page_size = 256,
                                       .capacity_pages = 4}) {
    file_ = store_.open("data.bin", true);
    // 8 pages of recognizable content.
    std::string content;
    for (int p = 0; p < 8; ++p) content += std::string(256, char('a' + p));
    store_.write(file_, 0, as_bytes(content));
  }

  util::TempDir dir_;
  RealFileStore store_;
  BufferPool pool_;
  FileId file_ = kInvalidFile;
};

TEST_F(BufferPoolTest, RejectsSillyConfig) {
  EXPECT_THROW(BufferPool(store_, BufferPoolConfig{.page_size = 1,
                                                   .capacity_pages = 4}),
               util::ConfigError);
  EXPECT_THROW(BufferPool(store_, BufferPoolConfig{.page_size = 256,
                                                   .capacity_pages = 0}),
               util::ConfigError);
}

TEST_F(BufferPoolTest, MissThenHit) {
  {
    auto g = pool_.pin(file_, 0);
    EXPECT_EQ(static_cast<char>(g.data()[0]), 'a');
  }
  EXPECT_EQ(pool_.stats().misses, 1u);
  {
    auto g = pool_.pin(file_, 0);
    EXPECT_EQ(static_cast<char>(g.data()[10]), 'a');
  }
  EXPECT_EQ(pool_.stats().hits, 1u);
}

TEST_F(BufferPoolTest, ValidBytesReflectsFileContent) {
  auto g = pool_.pin(file_, 7);  // last full page
  EXPECT_EQ(g.valid_bytes(), 256u);
  auto past = pool_.pin(file_, 100);  // way past EOF
  EXPECT_EQ(past.valid_bytes(), 0u);
}

TEST_F(BufferPoolTest, PastEofPageIsZeroFilled) {
  auto g = pool_.pin(file_, 100);
  for (auto b : g.data()) EXPECT_EQ(b, std::byte{0});
}

TEST_F(BufferPoolTest, LruEvictsOldestUnpinned) {
  for (std::uint64_t p = 0; p < 4; ++p) pool_.pin(file_, p);
  EXPECT_EQ(pool_.resident_pages(), 4u);
  pool_.pin(file_, 4);  // must evict page 0 (least recently used)
  EXPECT_EQ(pool_.stats().evictions, 1u);
  EXPECT_FALSE(pool_.contains(file_, 0));
  EXPECT_TRUE(pool_.contains(file_, 4));
}

TEST_F(BufferPoolTest, TouchOrderAffectsEviction) {
  for (std::uint64_t p = 0; p < 4; ++p) pool_.pin(file_, p);
  pool_.pin(file_, 0);  // refresh page 0; page 1 becomes LRU
  pool_.pin(file_, 5);
  EXPECT_TRUE(pool_.contains(file_, 0));
  EXPECT_FALSE(pool_.contains(file_, 1));
}

TEST_F(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  auto guard = pool_.pin(file_, 0);
  for (std::uint64_t p = 1; p < 8; ++p) pool_.pin(file_, p);
  EXPECT_TRUE(pool_.contains(file_, 0));
}

TEST_F(BufferPoolTest, AllPinnedThrows) {
  std::vector<BufferPool::PageGuard> guards;
  for (std::uint64_t p = 0; p < 4; ++p) guards.push_back(pool_.pin(file_, p));
  EXPECT_THROW(pool_.pin(file_, 4), util::IoError);
}

TEST_F(BufferPoolTest, PrefetchOnAllPinnedPoolIsSkippedNotThrown) {
  std::vector<BufferPool::PageGuard> guards;
  for (std::uint64_t p = 0; p < 4; ++p) guards.push_back(pool_.pin(file_, p));
  // A prefetch is a hint: with no frame to be had it loads nothing.
  EXPECT_FALSE(pool_.prefetch(file_, 4));
  EXPECT_FALSE(pool_.contains(file_, 4));
  EXPECT_EQ(pool_.stats().prefetches, 0u);
  guards.clear();
  pool_.debug_validate();
  // Once a frame frees up the same prefetch loads the page.
  EXPECT_TRUE(pool_.prefetch(file_, 4));
  EXPECT_TRUE(pool_.contains(file_, 4));
}

TEST_F(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  {
    auto g = pool_.pin(file_, 0);
    g.data()[0] = static_cast<std::byte>('Z');
    g.mark_dirty(256);
  }
  for (std::uint64_t p = 1; p <= 4; ++p) pool_.pin(file_, p);  // evict page 0
  EXPECT_GE(pool_.stats().writebacks, 1u);
  std::byte b;
  store_.read(file_, 0, std::span<std::byte>(&b, 1));
  EXPECT_EQ(static_cast<char>(b), 'Z');
}

TEST_F(BufferPoolTest, FlushFilePersistsDirtyPages) {
  {
    auto g = pool_.pin(file_, 2);
    g.data()[5] = static_cast<std::byte>('Q');
    g.mark_dirty(256);
  }
  pool_.flush_file(file_);
  std::byte b;
  store_.read(file_, 2 * 256 + 5, std::span<std::byte>(&b, 1));
  EXPECT_EQ(static_cast<char>(b), 'Q');
}

TEST_F(BufferPoolTest, WritebackRespectsValidBytes) {
  // A fresh page past EOF written only partially must not extend the file
  // to a full page.
  const FileId small = store_.open("small.bin", true);
  {
    auto g = pool_.pin(small, 0);
    std::memcpy(g.data().data(), "hi", 2);
    g.mark_dirty(2);
  }
  pool_.flush_file(small);
  EXPECT_EQ(store_.size(small), 2u);
  store_.close(small);
}

TEST_F(BufferPoolTest, PrefetchLoadsWithoutCountingMiss) {
  EXPECT_TRUE(pool_.prefetch(file_, 3));
  EXPECT_EQ(pool_.stats().prefetches, 1u);
  EXPECT_EQ(pool_.stats().misses, 0u);
  EXPECT_FALSE(pool_.prefetch(file_, 3));  // already resident
  auto g = pool_.pin(file_, 3);
  EXPECT_EQ(pool_.stats().hits, 1u);
  EXPECT_EQ(static_cast<char>(g.data()[0]), 'd');
}

TEST_F(BufferPoolTest, DiscardDropsWithoutWriteback) {
  {
    auto g = pool_.pin(file_, 1);
    g.data()[0] = static_cast<std::byte>('X');
    g.mark_dirty(256);
  }
  pool_.discard_file(file_);
  EXPECT_EQ(pool_.resident_pages(), 0u);
  EXPECT_EQ(pool_.stats().writebacks, 0u);
  std::byte b;
  store_.read(file_, 256, std::span<std::byte>(&b, 1));
  EXPECT_EQ(static_cast<char>(b), 'b');  // original content intact
}

TEST_F(BufferPoolTest, MarkDirtyBeyondPageThrows) {
  auto g = pool_.pin(file_, 0);
  EXPECT_THROW(g.mark_dirty(257), util::IoError);
}

TEST_F(BufferPoolTest, MovedFromGuardIsEmpty) {
  auto a = pool_.pin(file_, 0);
  auto b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(b.empty());
  EXPECT_THROW(static_cast<void>(a.data()), util::IoError);
}

TEST_F(BufferPoolTest, GuardsFromTwoFilesAreIndependent) {
  const FileId other = store_.open("other.bin", true);
  store_.write(other, 0, as_bytes(std::string(256, 'z')));
  auto g1 = pool_.pin(file_, 0);
  auto g2 = pool_.pin(other, 0);
  EXPECT_EQ(static_cast<char>(g1.data()[0]), 'a');
  EXPECT_EQ(static_cast<char>(g2.data()[0]), 'z');
  store_.close(other);
}

// ----------------------------------------------------- sharding & hashing ----

TEST(PageKeyHashTest, MixesBothFieldsIntoLowBits) {
  // The old (file << 48) ^ page_no scheme made page N of every file collide
  // modulo any small shard/bucket count.  The mixed hash must not.
  PageKeyHash hash;
  std::set<std::size_t> full;
  for (FileId f = 1; f <= 4; ++f) {
    for (std::uint64_t p = 0; p < 1000; ++p) {
      full.insert(hash(PageKey{f, p}));
    }
  }
  EXPECT_EQ(full.size(), 4000u);  // no full-width collisions at all
  // Same page of different files should usually land on different shards.
  std::size_t same_shard = 0;
  for (std::uint64_t p = 0; p < 1000; ++p) {
    if (hash(PageKey{1, p}) % 16 == hash(PageKey{2, p}) % 16) same_shard++;
  }
  EXPECT_LT(same_shard, 250u);  // ~62/1000 expected for a uniform hash
}

TEST(ShardedBufferPoolTest, AutoShardingKeepsSmallPoolsSingleShard) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  BufferPool small(store, BufferPoolConfig{.page_size = 256,
                                           .capacity_pages = 4});
  EXPECT_EQ(small.shard_count(), 1u);  // exact global LRU for tiny pools
  BufferPool big(store, BufferPoolConfig{.page_size = 4096,
                                         .capacity_pages = 4096});
  EXPECT_EQ(big.shard_count(), 16u);
  BufferPool manual(store, BufferPoolConfig{.page_size = 256,
                                            .capacity_pages = 64,
                                            .shards = 8});
  EXPECT_EQ(manual.shard_count(), 8u);
  EXPECT_THROW(BufferPool(store, BufferPoolConfig{.page_size = 256,
                                                  .capacity_pages = 4,
                                                  .shards = 8}),
               util::ConfigError);
}

TEST(ShardedBufferPoolTest, StatsStayExactAcrossShards) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  std::string content;
  for (int p = 0; p < 64; ++p) content += std::string(256, char('!' + p));
  store.write(file, 0, as_bytes(content));

  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 128,
                                          .shards = 8});
  for (std::uint64_t p = 0; p < 64; ++p) pool.pin(file, p);  // all miss
  for (std::uint64_t p = 0; p < 64; ++p) pool.pin(file, p);  // all hit
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 64u);
  EXPECT_EQ(stats.hits, 64u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(pool.resident_pages(), 64u);
}

TEST(ShardedBufferPoolTest, MultithreadedDisjointPinsKeepDataAndStatsExact) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  constexpr std::uint64_t kPages = 64;
  std::string content;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    content += std::string(256, char('a' + p % 26));
  }
  store.write(file, 0, as_bytes(content));

  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 256,
                                          .shards = 8});
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::atomic<int> bad_bytes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(7 * t + 1);
      const std::uint64_t base = t * (kPages / kThreads);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t page = base + rng.uniform_u64(kPages / kThreads);
        auto g = pool.pin(file, page);
        if (static_cast<char>(g.data()[0]) != char('a' + page % 26)) {
          bad_bytes++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_bytes.load(), 0);
  pool.debug_validate();
  const PoolStats stats = pool.stats();
  // Totals must be exact after merging shard counters: every pin was either
  // a hit or a miss, and with no eviction pressure each page missed once.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.misses, kPages);
}

TEST(ShardedBufferPoolTest, MultithreadedSharedPageLoadsOnlyOnce) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  store.write(file, 0, as_bytes(std::string(4 * 256, 'x')));

  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 64,
                                          .shards = 4});
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::atomic<int> bad_bytes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto g = pool.pin(file, static_cast<std::uint64_t>(i % 4));
        if (static_cast<char>(g.data()[0]) != 'x') bad_bytes++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_bytes.load(), 0);
  const PoolStats stats = pool.stats();
  // The io-busy latch dedupes concurrent faults on the same page: each of
  // the 4 pages is read from the backing store exactly once, and every
  // other pin counts as a hit.
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(ShardedBufferPoolTest, WorkingSetEqualToCapacityStaysResident) {
  // Frames are pooled globally, not statically split across shards, so a
  // working set of exactly capacity_pages must stay fully resident no
  // matter how its pages hash — this is what keeps the paper's warm-phase
  // measurements warm.
  CountingStore store;
  const FileId file = store.open("data.bin", true);
  constexpr std::uint64_t kPages = 512;
  std::vector<std::byte> page(256, std::byte{'w'});
  for (std::uint64_t p = 0; p < kPages; ++p) store.write(file, p * 256, page);

  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = kPages,
                                          .shards = 16});
  for (std::uint64_t p = 0; p < kPages; ++p) pool.pin(file, p);
  EXPECT_EQ(pool.resident_pages(), kPages);
  EXPECT_EQ(pool.stats().evictions, 0u);
  for (std::uint64_t p = 0; p < kPages; ++p) pool.pin(file, p);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, kPages);  // second pass is 100% warm
  EXPECT_EQ(stats.misses, kPages);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ShardedBufferPoolTest, PinsConcentratedInOneShardDoNotExhaustPool) {
  // Durably pinning many pages that happen to hash to one shard must not
  // produce "all frames pinned" while other frames are free: frame
  // allocation falls back to the global free list and sibling shards.
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  std::string content;
  for (int p = 0; p < 64; ++p) content += std::string(256, char('a' + p % 26));
  store.write(file, 0, as_bytes(content));

  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 16,
                                          .shards = 4});
  // Pin 8 pages of one shard (more than any static 16/4 split could hold).
  auto hash_shard = [&](std::uint64_t p) {
    return PageKeyHash{}(PageKey{file, p}) % pool.shard_count();
  };
  std::vector<BufferPool::PageGuard> guards;
  for (std::uint64_t p = 0; p < 64 && guards.size() < 8; ++p) {
    if (hash_shard(p) == 0) guards.push_back(pool.pin(file, p));
  }
  ASSERT_EQ(guards.size(), 8u);
  // The remaining 8 frames still serve any page, in shard 0 or not.
  for (std::uint64_t p = 0; p < 64; ++p) {
    auto g = pool.pin(file, p);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p % 26)) << p;
  }
}

TEST(ShardedBufferPoolTest, EvictionWithAllButOneFramePinnedPerShard) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  std::string content;
  for (int p = 0; p < 64; ++p) content += std::string(256, char('a' + p % 26));
  store.write(file, 0, as_bytes(content));

  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 8,
                                          .shards = 2});
  // Compute each page's shard the same way the pool does, then pin
  // all-but-one frame of every shard.
  auto shard_of = [&](std::uint64_t p) {
    return PageKeyHash{}(PageKey{file, p}) % pool.shard_count();
  };
  std::vector<std::size_t> pinned_per_shard(pool.shard_count(), 0);
  std::vector<BufferPool::PageGuard> guards;
  for (std::uint64_t p = 0; p < 64; ++p) {
    const std::size_t s = shard_of(p);
    if (pinned_per_shard[s] + 1 < 4) {  // 4 frames per shard, keep one free
      guards.push_back(pool.pin(file, p));
      pinned_per_shard[s]++;
    }
  }
  // Every shard now has exactly one evictable frame; streaming through many
  // pages must keep succeeding by cycling that single frame.
  for (std::uint64_t p = 0; p < 64; ++p) {
    auto g = pool.pin(file, p);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p % 26)) << p;
  }
  EXPECT_GT(pool.stats().evictions, 0u);
}

// -------------------------------------------------------- flush coalescing ----

TEST(FlushCoalescingTest, SequentialDirtyPagesMergeIntoOneGatherWrite) {
  CountingStore store;
  const FileId file = store.open("out.bin", true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  constexpr std::uint64_t kDirty = 16;
  for (std::uint64_t p = 0; p < kDirty; ++p) {
    auto g = pool.pin(file, p);
    std::memset(g.data().data(), '0' + static_cast<int>(p % 10), 256);
    g.mark_dirty(256);
  }
  pool.flush_all();
  // All 16 pages are adjacent and full, so they must go out as a single
  // vectored write — certainly far fewer calls than dirty pages.
  EXPECT_EQ(store.pages_written, kDirty);
  EXPECT_LT(store.write_calls + store.writev_calls, kDirty);
  EXPECT_EQ(store.write_calls + store.writev_calls, 1u);
  // The same ratio is observable from PoolStats without an instrumented
  // store: 16 pages through 1 flush backing call.
  EXPECT_EQ(pool.stats().flush_write_calls, 1u);
  EXPECT_EQ(pool.stats().flush_write_pages, kDirty);
  EXPECT_EQ(pool.stats().writebacks, kDirty);
  EXPECT_EQ(store.size(file), kDirty * 256);
  std::vector<std::byte> page(256);
  for (std::uint64_t p = 0; p < kDirty; ++p) {
    store.read(file, p * 256, page);
    EXPECT_EQ(static_cast<char>(page[0]), '0' + static_cast<int>(p % 10));
  }
}

TEST(FlushCoalescingTest, PartialPageEndsARunAndHolesSplitRuns) {
  CountingStore store;
  const FileId file = store.open("out.bin", true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 1});
  // Pages 0..3 full, page 4 only 100 valid bytes, pages 8..9 full: two runs
  // plus nothing between 5..7.
  for (std::uint64_t p = 0; p < 5; ++p) {
    auto g = pool.pin(file, p);
    std::memset(g.data().data(), 'A', 256);
    g.mark_dirty(p == 4 ? 100 : 256);
  }
  for (std::uint64_t p = 8; p < 10; ++p) {
    auto g = pool.pin(file, p);
    std::memset(g.data().data(), 'B', 256);
    g.mark_dirty(256);
  }
  pool.flush_all();
  EXPECT_EQ(store.pages_written, 7u);
  // Run [0..4] (partial page last) + run [8..9]: two gather writes.
  EXPECT_EQ(store.write_calls + store.writev_calls, 2u);
  EXPECT_EQ(store.size(file), 10 * 256u);  // run [8..9] extends past the hole
}

TEST(FlushCoalescingTest, CoalesceLimitBoundsRunLength) {
  CountingStore store;
  const FileId file = store.open("out.bin", true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 256,
                                          .shards = 1});
  for (std::uint64_t p = 0; p < 160; ++p) {
    auto g = pool.pin(file, p);
    g.mark_dirty(256);
  }
  pool.flush_all();
  // One dirty run of 160 pages splits at the 64-page coalescing limit.
  EXPECT_EQ(store.write_calls, 0u);
  EXPECT_EQ(store.writev_parts, (std::vector<std::size_t>{64, 64, 32}));
  EXPECT_EQ(pool.stats().flush_write_calls, 3u);
  EXPECT_EQ(pool.stats().flush_write_pages, 160u);
  EXPECT_EQ(store.size(file), 160 * 256u);
  pool.debug_validate();
}

TEST(FlushCoalescingTest, FailedFlushKeepsPagesDirtyForRetry) {
  CountingStore store;
  const FileId file = store.open("out.bin", true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 1});
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto g = pool.pin(file, p);
    std::memset(g.data().data(), 'R', 256);
    g.mark_dirty(256);
  }
  store.fail_writes = 1;
  EXPECT_THROW(pool.flush_all(), util::IoError);
  EXPECT_EQ(pool.stats().writebacks, 0u);
  pool.debug_validate();  // the failed flush released every transient hold
  // Retry must still see the pages dirty and persist them.
  pool.flush_all();
  EXPECT_EQ(pool.stats().writebacks, 8u);
  EXPECT_EQ(store.size(file), 8 * 256u);
}

TEST(FlushCoalescingTest, FailedEvictionWritebackKeepsPageResidentAndDirty) {
  CountingStore store;
  const FileId file = store.open("out.bin", true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 2,
                                          .shards = 1});
  {
    auto g = pool.pin(file, 0);
    std::memset(g.data().data(), 'E', 256);
    g.mark_dirty(256);
  }
  pool.pin(file, 1);
  store.fail_writes = 1;
  // Allocating for page 2 must evict dirty page 0; the injected write
  // failure surfaces, but page 0's data must survive in the pool.
  EXPECT_THROW(pool.pin(file, 2), util::IoError);
  EXPECT_TRUE(pool.contains(file, 0));
  pool.debug_validate();  // failed write-back must not leak the io latch
  pool.flush_all();
  std::vector<std::byte> page(256);
  store.read(file, 0, page);
  EXPECT_EQ(static_cast<char>(page[0]), 'E');
}

TEST(FlushCoalescingTest, ConcurrentPinsDuringFlushStayCoherent) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  store.write(file, 0, as_bytes(std::string(64 * 256, '.')));
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  // Dirty half the pages up front; page bytes are not mutated again while
  // the flusher runs (concurrent mutation of a page under write-back is
  // outside the pool's contract, like two writers on one page).
  for (std::uint64_t p = 0; p < 32; ++p) {
    auto g = pool.pin(file, p);
    g.data()[0] = static_cast<std::byte>('0' + p % 10);
    g.mark_dirty(256);
  }
  // Reader churns pins and evictions through the same shards the flusher
  // is flushing: evicting a flush-held frame must wait, not throw, and
  // every observed byte must be a value some write produced.
  std::atomic<bool> stop{false};
  std::atomic<int> bad_bytes{0};
  std::thread reader([&] {
    util::Rng rng(42);
    while (!stop.load()) {
      const std::uint64_t page = rng.uniform_u64(64);
      auto g = pool.pin(file, page);
      const char c = static_cast<char>(g.data()[0]);
      const char want = page < 32 ? char('0' + page % 10) : '.';
      if (c != want) bad_bytes++;
    }
  });
  for (int i = 0; i < 200; ++i) pool.flush_all();
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad_bytes.load(), 0);
  pool.flush_all();
  std::byte b;
  for (std::uint64_t p = 0; p < 64; ++p) {
    store.read(file, p * 256, std::span<std::byte>(&b, 1));
    const char want = p < 32 ? char('0' + p % 10) : '.';
    EXPECT_EQ(static_cast<char>(b), want) << p;
  }
}

/// In-memory store whose write() can be armed to park the calling thread
/// on a latch and then fail on command — freezes an eviction write-back at
/// its most revealing moment.
class BlockingWriteStore final : public BackingStore {
 public:
  FileId open(const std::string& name, bool create) override {
    if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
    util::check<util::IoError>(create, "BlockingWriteStore: no such file");
    const auto id = static_cast<FileId>(files_.size());
    files_.emplace_back();
    by_name_.emplace(name, id);
    return id;
  }
  void close(FileId) override {}
  [[nodiscard]] std::uint64_t size(FileId id) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return files_.at(id).size();
  }
  void truncate(FileId id, std::uint64_t n) override {
    std::lock_guard<std::mutex> lock(mutex_);
    files_.at(id).resize(n);
  }
  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto& data = files_.at(id);
    if (offset >= data.size()) return 0;
    const std::size_t n =
        std::min<std::size_t>(out.size(), data.size() - offset);
    std::memcpy(out.data(), data.data() + offset, n);
    return n;
  }
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (block_next_write_) {
        block_next_write_ = false;
        write_parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
        released_ = false;
        write_parked_ = false;
        if (fail_on_release_) {
          fail_on_release_ = false;
          throw util::IoError("BlockingWriteStore: commanded failure");
        }
      }
      auto& file = files_.at(id);
      if (offset + data.size() > file.size()) {
        file.resize(offset + data.size());
      }
      std::memcpy(file.data() + offset, data.data(), data.size());
    }
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return by_name_.contains(name);
  }
  [[nodiscard]] FileId lookup(const std::string& name) const override {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kInvalidFile : it->second;
  }
  void remove(const std::string& name) override { by_name_.erase(name); }

  void arm_block() {
    std::lock_guard<std::mutex> lock(mutex_);
    block_next_write_ = true;
  }
  void wait_until_parked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return write_parked_; });
  }
  void release(bool fail) {
    std::lock_guard<std::mutex> lock(mutex_);
    fail_on_release_ = fail;
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool block_next_write_ = false;
  bool write_parked_ = false;
  bool released_ = false;
  bool fail_on_release_ = false;
  std::vector<std::vector<std::byte>> files_;
  std::unordered_map<std::string, FileId> by_name_;
};

TEST(FlushDurabilityTest, FlushWaitsOutInFlightEvictionAndSeesItsFailure) {
  // Regression for the durability hole the fault-injection stress harness
  // discovered (seed 1014, disk-full plan): a dirty page mid-eviction is
  // invisible to flush's dirty scan (eviction clears `dirty` and detaches
  // the frame before writing), so flush_file could return success, the
  // write-back could then fail and re-dirty the page, and a later discard
  // would drop the only copy — silent data loss behind a successful
  // flush.  flush must instead wait for the in-flight write-back and pick
  // up the page if it comes back dirty.
  BlockingWriteStore store;
  const FileId file = store.open("f", true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 2,
                                          .shards = 1});
  {
    auto g = pool.pin(file, 0);
    std::memset(g.data().data(), 'A', 256);
    g.mark_dirty(256);
  }
  static_cast<void>(pool.pin(file, 1));  // page 0 becomes the LRU victim

  store.arm_block();
  std::atomic<bool> evictor_threw{false};
  std::thread evictor([&] {
    try {
      // Needs a frame: evicts dirty page 0, whose write-back parks in the
      // store and will be commanded to fail.
      static_cast<void>(pool.pin(file, 2));
    } catch (const util::IoError&) {
      evictor_threw = true;
    }
  });
  store.wait_until_parked();

  std::atomic<bool> flush_done{false};
  std::exception_ptr flush_error;
  std::thread flusher([&] {
    try {
      pool.flush_file(file);
    } catch (...) {
      flush_error = std::current_exception();
    }
    flush_done = true;
  });
  // The write-back is still in flight, so flush must not have concluded:
  // returning success here is exactly the bug.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(flush_done.load())
      << "flush_file returned while a dirty page's write-back was in flight";

  store.release(/*fail=*/true);
  evictor.join();
  flusher.join();
  EXPECT_TRUE(evictor_threw.load());  // the eviction surfaced the failure
  EXPECT_EQ(flush_error, nullptr);    // flush retried the page and succeeded
  // The 'A' page survived the failed write-back and was persisted by the
  // flush that observed it.
  std::vector<std::byte> page(256);
  EXPECT_EQ(store.read(file, 0, page), 256u);
  EXPECT_EQ(static_cast<char>(page[0]), 'A');
  pool.debug_validate();
}

TEST(FlushDurabilityTest, ConcurrentFlushWaitsForAPeersFailingWrite) {
  // The concurrent-flush twin of the eviction case above: flush A collects
  // a dirty page (clearing `dirty`, taking a flush_pin) and its write
  // parks; flush B on the same file must not return success while A's
  // write — which will fail and re-dirty the page — is in flight,
  // otherwise B's success claims durability the store never delivered.
  BlockingWriteStore store;
  const FileId file = store.open("f", true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 8,
                                          .shards = 1});
  {
    auto g = pool.pin(file, 0);
    std::memset(g.data().data(), 'B', 256);
    g.mark_dirty(256);
  }
  store.arm_block();
  std::atomic<bool> first_threw{false};
  std::thread first_flush([&] {
    try {
      pool.flush_file(file);
    } catch (const util::IoError&) {
      first_threw = true;
    }
  });
  store.wait_until_parked();

  std::atomic<bool> second_done{false};
  std::exception_ptr second_error;
  std::thread second_flush([&] {
    try {
      pool.flush_file(file);
    } catch (...) {
      second_error = std::current_exception();
    }
    second_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_done.load())
      << "flush_file returned while a peer flush's write was in flight";

  store.release(/*fail=*/true);
  first_flush.join();
  second_flush.join();
  EXPECT_TRUE(first_threw.load());     // A surfaced the write failure
  EXPECT_EQ(second_error, nullptr);    // B picked the page up and succeeded
  std::vector<std::byte> page(256);
  EXPECT_EQ(store.read(file, 0, page), 256u);
  EXPECT_EQ(static_cast<char>(page[0]), 'B');
  pool.debug_validate();
}

// ---------------------------------------------------------- validation ----

TEST_F(BufferPoolTest, DebugValidatePassesAcrossLifecycle) {
  pool_.debug_validate();  // fresh pool: everything on the free list
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto g = pool_.pin(file_, p);
    if (p % 2 == 0) g.mark_dirty(128);
  }
  pool_.debug_validate();  // after misses, evictions and dirty pages
  pool_.flush_all();
  pool_.debug_validate();
  pool_.discard_file(file_);
  pool_.debug_validate();  // after discard: all frames free again
}

TEST_F(BufferPoolTest, DebugValidateSeesHeldPins) {
  auto guard = pool_.pin(file_, 0);
  // A durable pin is a leak from the harness's point of view (it runs
  // after joining all workers), but legitimate while a guard is live.
  EXPECT_THROW(pool_.debug_validate(), util::IoError);
  pool_.debug_validate(/*expect_unpinned=*/false);
}

TEST_F(BufferPoolTest, EvictCleanDropsOnlyUnreferencedCleanPages) {
  auto pinned = pool_.pin(file_, 0);
  {
    auto dirty = pool_.pin(file_, 1);
    dirty.mark_dirty(256);
  }
  static_cast<void>(pool_.pin(file_, 2));  // clean, unpinned
  EXPECT_EQ(pool_.resident_pages(), 3u);
  // Unlike discard_file, evict_clean must tolerate the live pin and keep
  // the dirty page; only the clean unreferenced page may go.
  EXPECT_EQ(pool_.evict_clean(), 1u);
  EXPECT_EQ(pool_.resident_pages(), 2u);
  EXPECT_TRUE(pool_.contains(file_, 0));
  EXPECT_TRUE(pool_.contains(file_, 1));
  EXPECT_FALSE(pool_.contains(file_, 2));
  pool_.debug_validate(/*expect_unpinned=*/false);
  // After a flush everything unpinned is evictable.
  pool_.flush_all();
  EXPECT_EQ(pool_.evict_clean(), 1u);
  EXPECT_TRUE(pool_.contains(file_, 0));  // still pinned, still resident
  pinned = BufferPool::PageGuard{};  // drop the pin
  EXPECT_EQ(pool_.evict_clean(), 1u);
  EXPECT_EQ(pool_.resident_pages(), 0u);
  pool_.debug_validate();
}

TEST_F(BufferPoolTest, StressEvictionKeepsContentsCoherent) {
  // Write a distinct marker into each of 8 pages through a 4-frame pool,
  // then read everything back: LRU thrash must not lose updates.
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto g = pool_.pin(file_, p);
    g.data()[0] = static_cast<std::byte>('0' + p);
    g.mark_dirty(256);
  }
  pool_.flush_all();
  for (std::uint64_t p = 0; p < 8; ++p) {
    std::byte b;
    store_.read(file_, p * 256, std::span<std::byte>(&b, 1));
    EXPECT_EQ(static_cast<char>(b), static_cast<char>('0' + p)) << p;
  }
}

}  // namespace
}  // namespace clio::io
