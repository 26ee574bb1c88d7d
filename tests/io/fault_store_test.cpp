// Unit coverage for the FaultStore decorator: determinism, exact-call
// targeting, tear semantics (short reads, torn writes, granularity,
// disk-full), and aiming faults at specific buffer-pool code paths
// (coalesced flush gathers, prefetch readv runs, eviction write-backs).
#include "io/fault_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/file_store.hpp"
#include "util/error.hpp"

namespace clio::io {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

std::string read_all(BackingStore& store, FileId id) {
  std::vector<std::byte> buf(store.size(id));
  static_cast<void>(store.read(id, 0, buf));
  return std::string(reinterpret_cast<const char*>(buf.data()), buf.size());
}

TEST(FaultStore, ForwardsVerbatimWithEmptyPlan) {
  SimFileStore inner(2, 64 * 1024);
  FaultStore store(inner);
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("hello"));
  std::vector<std::byte> buf(5);
  EXPECT_EQ(store.read(id, 0, buf), 5u);
  EXPECT_EQ(store.size(id), 5u);
  EXPECT_TRUE(store.exists("f"));
  EXPECT_EQ(store.lookup("f"), id);
  const FaultStats stats = store.stats();
  EXPECT_EQ(stats.total_faults(), 0u);
  EXPECT_EQ(stats.calls[static_cast<std::size_t>(FaultOp::kRead)], 1u);
  EXPECT_EQ(stats.calls[static_cast<std::size_t>(FaultOp::kWrite)], 1u);
  store.close(id);
}

TEST(FaultStore, DisarmedStoreCountsAndInjectsNothing) {
  SimFileStore inner(2, 64 * 1024);
  FaultPlan plan;
  plan.fail_prob = {1.0, 1.0, 1.0, 1.0};
  FaultStore store(inner, plan);
  store.arm(false);
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("safe"));
  std::vector<std::byte> buf(4);
  EXPECT_EQ(store.read(id, 0, buf), 4u);
  EXPECT_EQ(store.stats().total_calls(), 0u);
  EXPECT_EQ(store.stats().total_faults(), 0u);
  store.arm(true);
  EXPECT_THROW(store.write(id, 0, as_bytes("boom")), util::IoError);
}

TEST(FaultStore, FailNthTargetsTheExactCall) {
  SimFileStore inner(2, 64 * 1024);
  FaultPlan plan;
  plan.fail_nth[static_cast<std::size_t>(FaultOp::kRead)] = 3;
  FaultStore store(inner, plan);
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abcdef"));
  std::vector<std::byte> buf(6);
  EXPECT_EQ(store.read(id, 0, buf), 6u);  // call 1
  EXPECT_EQ(store.read(id, 0, buf), 6u);  // call 2
  EXPECT_THROW(store.read(id, 0, buf), util::IoError);  // call 3
  EXPECT_EQ(store.read(id, 0, buf), 6u);  // call 4: one-shot trigger
  EXPECT_EQ(store.stats().faults[static_cast<std::size_t>(FaultOp::kRead)],
            1u);
}

TEST(FaultStore, FailNextForcesTheNextCalls) {
  SimFileStore inner(2, 64 * 1024);
  FaultStore store(inner);
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abc"));
  store.fail_next(FaultOp::kWrite, 2);
  EXPECT_THROW(store.write(id, 0, as_bytes("x")), util::IoError);
  EXPECT_THROW(store.write(id, 0, as_bytes("y")), util::IoError);
  store.write(id, 0, as_bytes("z"));  // latch exhausted
  EXPECT_EQ(read_all(store, id)[0], 'z');
  // The failed writes never reached the inner store.
  EXPECT_EQ(read_all(store, id).substr(1), "bc");
}

TEST(FaultStore, SameSeedReplaysTheSameFaultSequence) {
  const auto trace_of = [](std::uint64_t seed) {
    SimFileStore inner(2, 64 * 1024);
    FaultPlan plan;
    plan.seed = seed;
    plan.fail_prob[static_cast<std::size_t>(FaultOp::kRead)] = 0.5;
    FaultStore store(inner, plan);
    const FileId id = store.open("f", true);
    store.arm(false);
    store.write(id, 0, as_bytes("data"));
    store.arm(true);
    std::vector<std::byte> buf(4);
    std::string trace;
    for (int i = 0; i < 64; ++i) {
      try {
        static_cast<void>(store.read(id, 0, buf));
        trace += '.';
      } catch (const util::IoError&) {
        trace += 'X';
      }
    }
    return trace;
  };
  EXPECT_EQ(trace_of(42), trace_of(42));
  EXPECT_NE(trace_of(42), trace_of(43));  // astronomically unlikely to match
  EXPECT_NE(trace_of(42).find('X'), std::string::npos);
  EXPECT_NE(trace_of(42).find('.'), std::string::npos);
}

TEST(FaultStore, ShortReadFillsAPrefixThenThrows) {
  SimFileStore inner(2, 64 * 1024);
  FaultPlan plan;
  plan.short_read_prob = 1.0;
  FaultStore store(inner, plan);
  const FileId id = store.open("f", true);
  store.arm(false);
  store.write(id, 0, as_bytes("0123456789"));
  store.arm(true);
  std::vector<std::byte> buf(10, std::byte{'?'});
  EXPECT_THROW(static_cast<void>(store.read(id, 0, buf)), util::IoError);
  EXPECT_EQ(store.stats().short_reads, 1u);
  // Whatever prefix was filled matches the file; the tail is untouched.
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const char c = static_cast<char>(buf[i]);
    EXPECT_TRUE(c == static_cast<char>('0' + i) || c == '?') << i;
  }
}

TEST(FaultStore, TornWritePersistsAGranularityAlignedPrefix) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    SimFileStore inner(2, 64 * 1024);
    FaultPlan plan;
    plan.seed = 100 + static_cast<std::uint64_t>(attempt);
    plan.torn_write_prob = 1.0;
    plan.torn_granularity = 4;
    FaultStore store(inner, plan);
    const FileId id = store.open("f", true);
    EXPECT_THROW(store.write(id, 0, as_bytes("abcdefghij")), util::IoError);
    EXPECT_EQ(store.stats().torn_writes, 1u);
    const std::uint64_t persisted = inner.size(id);
    EXPECT_EQ(persisted % 4, 0u) << "tear not granularity-aligned";
    EXPECT_LT(persisted, 10u);
    EXPECT_EQ(read_all(inner, id),
              std::string("abcdefghij").substr(0, persisted));
  }
}

TEST(FaultStore, TornWritevTearsBetweenPageSizedParts) {
  SimFileStore inner(2, 64 * 1024);
  FaultPlan plan;
  plan.torn_write_prob = 1.0;
  plan.torn_granularity = 4;  // one "page"
  FaultStore store(inner, plan);
  const FileId id = store.open("f", true);
  const std::string a(4, 'A'), b(4, 'B'), c(4, 'C');
  std::vector<std::span<const std::byte>> parts{as_bytes(a), as_bytes(b),
                                                as_bytes(c)};
  EXPECT_THROW(store.writev(id, 0, parts), util::IoError);
  // A whole number of leading parts landed; no part was split.
  const std::uint64_t persisted = inner.size(id);
  EXPECT_EQ(persisted % 4, 0u);
  EXPECT_LT(persisted, 12u);
  const std::string got = read_all(inner, id);
  EXPECT_EQ(got, std::string("AAAABBBBCCCC").substr(0, persisted));
}

TEST(FaultStore, DiskFullTearsAtTheBudgetThenRefusesWrites) {
  SimFileStore inner(2, 64 * 1024);
  FaultPlan plan;
  plan.disk_full_after_bytes = 8;
  FaultStore store(inner, plan);
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("123456"));  // 6 of 8 bytes used
  EXPECT_THROW(store.write(id, 6, as_bytes("789abc")), util::IoError);
  EXPECT_EQ(store.stats().disk_full_faults, 1u);
  // The failing write landed exactly up to the budget boundary.
  EXPECT_EQ(read_all(inner, id), "12345678");
  // The budget is spent: even a 1-byte write now fails cleanly.
  EXPECT_THROW(store.write(id, 0, as_bytes("x")), util::IoError);
  EXPECT_EQ(read_all(inner, id), "12345678");
  // reset() restores the budget.
  store.reset();
  store.write(id, 0, as_bytes("xx"));
  EXPECT_EQ(read_all(inner, id).substr(0, 2), "xx");
}

TEST(FaultStore, LatencyInjectionIsCountedAndHarmless) {
  SimFileStore inner(2, 64 * 1024);
  FaultPlan plan;
  plan.latency_prob = 1.0;
  plan.latency_us = 1;
  FaultStore store(inner, plan);
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("slow"));
  std::vector<std::byte> buf(4);
  EXPECT_EQ(store.read(id, 0, buf), 4u);
  EXPECT_EQ(store.stats().latency_injections, 2u);
  EXPECT_EQ(store.stats().total_faults(), 0u);  // latency is not a failure
}

TEST(FaultStore, OwningConstructorManagesTheInnerStore) {
  FaultStore store(std::make_unique<SimFileStore>(2, 64 * 1024));
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("owned"));
  std::vector<std::byte> buf(5);
  EXPECT_EQ(store.read(id, 0, buf), 5u);
  store.close(id);
}

// ------------------------------------------------- aiming at pool paths ----

TEST(FaultStoreAiming, FailNthWritevHitsTheCoalescedFlushGather) {
  SimFileStore inner(2, 64 * 1024);
  FaultPlan plan;
  plan.fail_nth[static_cast<std::size_t>(FaultOp::kWritev)] = 1;
  FaultStore store(inner, plan);
  const FileId id = store.open("f", true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 1});
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto g = pool.pin(id, p);
    std::memset(g.data().data(), 'F', 256);
    g.mark_dirty(256);
  }
  // The flush's one writev gather is exactly the first writev call.
  EXPECT_THROW(pool.flush_all(), util::IoError);
  pool.debug_validate();
  // Nothing was lost: the retry persists all 8 pages.
  pool.flush_all();
  EXPECT_EQ(inner.size(id), 8 * 256u);
  pool.debug_validate();
}

TEST(FaultStoreAiming, FailNthReadvHitsTheRequestGather) {
  SimFileStore inner(2, 64 * 1024);
  FaultPlan plan;
  plan.fail_nth[static_cast<std::size_t>(FaultOp::kReadv)] = 1;
  FaultStore store(inner, plan);
  const FileId id = store.open("f", true);
  store.arm(false);
  std::vector<std::byte> content(32 * 256, std::byte{'P'});
  store.write(id, 0, content);
  store.arm(true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  // Pages 12..19 end run 0 and start run 1, which lie in different shards.
  EXPECT_THROW(static_cast<void>(pool.pin_span(id, 12, 19)), util::IoError);
  EXPECT_EQ(pool.resident_pages(), 0u);  // failed gather fully unwound
  pool.debug_validate();
  static_cast<void>(pool.pin_span(id, 12, 19));
  EXPECT_EQ(pool.resident_pages(), 8u);  // retry loads clean
  pool.debug_validate();
}

TEST(FaultStoreAiming, TornEvictionWritebackKeepsThePageDirty) {
  SimFileStore inner(2, 64 * 1024);
  FaultPlan plan;
  plan.fail_nth[static_cast<std::size_t>(FaultOp::kWrite)] = 1;
  FaultStore store(inner, plan);
  const FileId id = store.open("f", true);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 2,
                                          .shards = 1});
  {
    auto g = pool.pin(id, 0);
    std::memset(g.data().data(), 'D', 256);
    g.mark_dirty(256);
  }
  static_cast<void>(pool.pin(id, 1));
  // Faulting page 2 evicts dirty page 0; its write-back hits the fault.
  EXPECT_THROW(static_cast<void>(pool.pin(id, 2)), util::IoError);
  EXPECT_TRUE(pool.contains(id, 0));
  pool.debug_validate();
  pool.flush_all();
  std::vector<std::byte> b(1);
  static_cast<void>(inner.read(id, 0, b));
  EXPECT_EQ(static_cast<char>(b[0]), 'D');
  pool.debug_validate();
}

}  // namespace
}  // namespace clio::io
