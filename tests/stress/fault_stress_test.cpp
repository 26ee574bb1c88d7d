// Cross-layer stress/soak suite for the concurrent I/O path: seeded
// multi-threaded pin/dirty/flush/discard/gather/touch mixes, and multi-page
// ManagedFile reads and writes, over a FaultStore that injects EIOs, short
// reads, torn writes, latency spikes and disk-full.  After every run the pool must pass debug_validate() and the
// backing bytes must match the per-thread oracle — any violation prints
// the reproducing seed.
//
// Environment knobs (all optional):
//   CLIO_STRESS_SEED  — run only this seed (the CI soak job sweeps 10)
//   CLIO_STRESS_OPS   — ops per thread (default 2000; TSan jobs inherit it)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "io/fault_store.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "io/retrying_store.hpp"
#include "support/stress_harness.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace clio::test_support {
namespace {

std::vector<std::uint64_t> seeds_under_test() {
  if (const char* env = std::getenv("CLIO_STRESS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 2, 3};
}

std::uint64_t ops_per_thread() {
  if (const char* env = std::getenv("CLIO_STRESS_OPS")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 2000;
}

/// The all-fault plan most tests run: every data op can fail cleanly, reads
/// can be torn mid-fill, writes mid-persist, and latency spikes widen race
/// windows.  Rates are chosen so a run injects well over the acceptance
/// bar of one fault per 100 pool ops.
io::FaultPlan mixed_plan() {
  io::FaultPlan plan;
  plan.fail_prob = {0.02, 0.02, 0.02, 0.02};  // read, write, readv, writev
  plan.short_read_prob = 0.02;
  plan.torn_write_prob = 0.02;
  plan.latency_prob = 0.01;
  plan.latency_us = 50;
  return plan;
}

void expect_clean(const StressResult& result, std::uint64_t seed) {
  for (const std::string& failure : result.failures) {
    ADD_FAILURE() << failure << "  (reproduce with CLIO_STRESS_SEED=" << seed
                  << ")";
  }
  // A stress run that injected nothing proves nothing: the plans above
  // must actually fire.
  EXPECT_GT(result.injected_faults, 0u)
      << "seed " << seed << " injected no faults";
}

TEST(FaultStress, MixedFaults8ThreadsRealStore) {
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::TempDir dir("clio-stress");
    io::RealFileStore store(dir.path());
    StressConfig config;
    config.seed = seed;
    config.threads = 8;
    config.shards = 16;
    config.capacity_pages = 64;
    config.ops_per_thread = ops_per_thread();
    config.faults = mixed_plan();
    const StressResult result = run_stress(store, config);
    expect_clean(result, seed);
    // Acceptance bar: at least one injected fault per 100 pool ops.
    EXPECT_GE(result.injected_faults * 100, result.ops)
        << "seed " << seed << ": " << result.injected_faults
        << " faults over " << result.ops << " ops";
  }
}

TEST(FaultStress, MixedFaultsOnSimStore) {
  // Same mix against the modeled store: exercises the single-mutex
  // SimFileStore under concurrent gathers, and keeps the suite meaningful
  // on filesystems where TempDir I/O dominates.
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    io::SimFileStore store(4, 64 * 1024);
    StressConfig config;
    config.seed = seed;
    config.threads = 4;
    config.shards = 4;
    config.capacity_pages = 48;
    config.ops_per_thread = ops_per_thread();
    config.faults = mixed_plan();
    const StressResult result = run_stress(store, config);
    expect_clean(result, seed);
  }
}

TEST(FaultStress, SingleShardTinyPoolMaximisesEvictionChurn) {
  // shards=1 serializes the page table, so every unwind interleaves with
  // every other op; capacity 8 means nearly every pin evicts — the failed
  // eviction write-back path fires constantly.
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::TempDir dir("clio-stress");
    io::RealFileStore store(dir.path());
    StressConfig config;
    config.seed = seed;
    config.threads = 2;
    config.shards = 1;
    config.capacity_pages = 8;
    config.pages_per_file = 24;
    config.ops_per_thread = ops_per_thread();
    config.faults = mixed_plan();
    const StressResult result = run_stress(store, config);
    expect_clean(result, seed);
  }
}

TEST(FaultStress, DiskFullMidRun) {
  // Exhaust a byte budget mid-run: from then on every flush and eviction
  // write-back fails until the harness disarms for the final clean flush.
  // Dirty data must survive the outage (the oracle checks it landed).
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::TempDir dir("clio-stress");
    io::RealFileStore store(dir.path());
    StressConfig config;
    config.seed = seed;
    config.threads = 4;
    config.shards = 4;
    config.capacity_pages = 32;
    config.ops_per_thread = ops_per_thread() / 2;
    config.faults.disk_full_after_bytes = 256 * 1024;
    config.faults.fail_prob = {0.01, 0.0, 0.01, 0.0};
    const StressResult result = run_stress(store, config);
    expect_clean(result, seed);
    EXPECT_GT(result.surfaced_errors, 0u)
        << "disk-full never surfaced; budget too generous for this run";
  }
}

TEST(FaultStress, SharedFileTokenedAccessUnderFaults) {
  // ROADMAP open item: one file shared by every thread, per-page tokens
  // arbitrating byte access, so cross-thread same-page pin interleavings
  // (pin after foreign pin, a gather racing a pin, discard observing a
  // foreign pin and unwinding) run under the full fault mix.  The oracle
  // checks uniformity + membership of every value ever written.
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::TempDir dir("clio-stress");
    io::RealFileStore store(dir.path());
    StressConfig config;
    config.seed = seed;
    config.threads = 6;
    config.shards = 4;
    config.capacity_pages = 24;  // < pages_per_file: eviction churn too
    config.pages_per_file = 40;
    config.ops_per_thread = ops_per_thread();
    config.shared_file = true;
    config.faults = mixed_plan();
    const StressResult result = run_stress(store, config);
    expect_clean(result, seed);
  }
}

TEST(FaultStress, ShardSweepStaysCoherent) {
  // The shard count changes which locks protect which pages but must never
  // change observable behaviour.
  for (const std::size_t shards : {1u, 4u, 16u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    util::TempDir dir("clio-stress");
    io::RealFileStore store(dir.path());
    StressConfig config;
    config.seed = 7;
    config.threads = 4;
    config.shards = shards;
    config.capacity_pages = 48;
    config.ops_per_thread = ops_per_thread() / 2;
    config.faults = mixed_plan();
    const StressResult result = run_stress(store, config);
    expect_clean(result, config.seed);
  }
}

TEST(FaultStress, ManagedSpansUnderFaults) {
  // The layer above the pool: multi-page ManagedFile reads and writes, so
  // request gathers, seek touches and close-time flushes unwind under the
  // mixed plan while threads evict each other's pages (4 files share a
  // 32-page pool).  The second input's spans reach 96 pages, so reads and
  // writes of 64 pages or more go around the pool under the same plan; a
  // large write that throws must leave its position and the oracle's
  // old-or-new bytes, like any other.
  struct Spans {
    std::size_t pages_per_file;
    std::size_t span_pages;
  };
  for (const Spans spans : {Spans{48, 6}, Spans{160, 96}}) {
    for (const std::uint64_t seed : seeds_under_test()) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " span_pages=" + std::to_string(spans.span_pages));
      util::TempDir dir("clio-stress");
      io::RealFileStore store(dir.path());
      StressConfig config;
      config.seed = seed;
      config.threads = 4;
      config.shards = 4;
      config.capacity_pages = 32;
      config.pages_per_file = spans.pages_per_file;
      config.span_pages = spans.span_pages;
      config.ops_per_thread = ops_per_thread();
      config.faults = mixed_plan();
      const StressResult result = run_managed_stress(store, config);
      expect_clean(result, seed);
      if (spans.span_pages >= io::BufferPool::kCoalescePages) {
        EXPECT_GT(result.pool.direct_read_calls, 0u);
        EXPECT_GT(result.pool.direct_write_calls, 0u);
      }
    }
  }
}

TEST(FaultStress, TransientFaultsOnDirectReadsAreRetried) {
  // Reads of 64 pages or more under clean EIOs and short reads, with a
  // RetryingStore between the pool and the faults: every fault is
  // absorbed by a retry, so each read returns the file's bytes.
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::TempDir dir("clio-stress");
    io::FaultPlan plan;
    plan.seed = seed;
    plan.fail_prob = {0.1, 0.0, 0.0, 0.0};  // read only
    plan.short_read_prob = 0.1;
    auto faulty = std::make_unique<io::FaultStore>(
        std::make_unique<io::RealFileStore>(dir.path()), plan);
    io::FaultStore* faults = faulty.get();
    faults->arm(false);
    io::RetryPolicy policy;
    policy.backoff = {.max_retries = 10, .base_delay_us = 1,
                      .max_delay_us = 10};
    policy.seed = seed;
    auto retrying =
        std::make_unique<io::RetryingStore>(std::move(faulty), policy);
    io::RetryingStore* retry = retrying.get();
    io::ManagedFsOptions options;
    options.page_size = 256;
    options.pool_pages = 32;
    io::ManagedFileSystem fs(std::move(retrying), options);

    std::vector<std::byte> content(200 * 256);
    for (std::size_t i = 0; i < content.size(); ++i) {
      content[i] = static_cast<std::byte>((i * 7 + i / 251 + seed) % 256);
    }
    io::ManagedFile f = fs.open("direct.bin", io::OpenMode::kTruncate);
    f.write(content);
    fs.drop_caches();
    faults->arm(true);
    util::Rng rng(seed);
    std::vector<std::byte> buf(100 * 256);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t pos = rng.uniform_u64(content.size() - buf.size());
      const std::size_t len = 64 * 256 + rng.uniform_u64(36 * 256);
      f.seek(pos);
      ASSERT_EQ(f.read(std::span(buf).first(len)), len);
      ASSERT_TRUE(std::equal(buf.begin(), buf.begin() + len,
                             content.begin() + pos))
          << "read " << i << " at " << pos
          << " (reproduce with CLIO_STRESS_SEED=" << seed << ")";
    }
    faults->arm(false);
    EXPECT_GT(fs.pool().stats().direct_read_calls, 0u);
    EXPECT_GT(faults->stats().total_faults(), 0u);
    EXPECT_GT(retry->stats().retries, 0u);
    EXPECT_EQ(retry->stats().exhausted, 0u);
    fs.pool().debug_validate();
  }
}

}  // namespace
}  // namespace clio::test_support
