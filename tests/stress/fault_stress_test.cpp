// Cross-layer stress/soak suite for the concurrent I/O path: seeded
// multi-threaded pin/dirty/flush/discard/prefetch mixes over a FaultStore
// that injects EIOs, short reads, torn writes, latency spikes and
// disk-full.  After every run the pool must pass debug_validate() and the
// backing bytes must match the per-thread oracle — any violation prints
// the reproducing seed.
//
// Environment knobs (all optional):
//   CLIO_STRESS_SEED  — run only this seed (the CI soak job sweeps 10)
//   CLIO_STRESS_OPS   — ops per thread (default 2000; TSan jobs inherit it)
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "io/fault_store.hpp"
#include "io/file_store.hpp"
#include "support/stress_harness.hpp"
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
  // (pin after foreign pin, prefetch racing a pin, discard observing a
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

}  // namespace
}  // namespace clio::test_support
