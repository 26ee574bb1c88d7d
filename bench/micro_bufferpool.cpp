// Multithreaded buffer-pool microbenchmark: measures the de-serialization
// work in the I/O hot path (sharded lock striping, I/O outside the shard
// lock, coalesced write-back).
//
// Scenarios:
//   warm-hit   — every pin is a cache hit on the thread's own page range;
//                under the old single pool mutex this was ~flat with thread
//                count, with shards it should scale on multi-core hosts.
//   miss-churn — pool much smaller than the file, every access evicts and
//                loads; measures how much the loads serialize.
//   flush      — dirties a sequentially-written file and flushes, reporting
//                backing-store write calls vs dirty pages (coalescing win).
//   prefetch   — sequential scans through a pool much smaller than the file,
//                driven by prefetch_range windows: measures the coalesced
//                readv gather path, reporting pages/s plus the backing
//                read-batching ratio.
//   faults     — the miss/evict churn mix run against a FaultStore that
//                injects EIOs, short reads, torn writes and latency spikes:
//                the degraded mode.  Reports clean vs degraded throughput,
//                injected-fault and surfaced-error counts, and checks pool
//                invariants (debug_validate) after the storm.
//
// Each scenario runs at 1/2/4/8 threads and reports aggregate ops/sec plus
// speedup vs 1 thread, for shards=1 (the pre-sharding structure) and the
// default 16-way sharding.
//
// Usage: micro_bufferpool [all|warm|miss|flush|prefetch|faults]
// (default: all)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/fault_store.hpp"
#include "io/file_store.hpp"
#include "obs/bench_report.hpp"
#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/temp_dir.hpp"

namespace {

using namespace clio;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPageSize = 4096;
constexpr std::uint64_t kFilePages = 2048;  // 8 MiB working file

volatile unsigned long long benchmark_sink = 0;

/// Counts backing-store write calls; forwards everything to a RealFileStore.
class CountingStore final : public io::BackingStore {
 public:
  explicit CountingStore(io::BackingStore& inner) : inner_(inner) {}

  io::FileId open(const std::string& name, bool create) override {
    return inner_.open(name, create);
  }
  void close(io::FileId id) override { inner_.close(id); }
  [[nodiscard]] std::uint64_t size(io::FileId id) const override {
    return inner_.size(id);
  }
  void truncate(io::FileId id, std::uint64_t n) override {
    inner_.truncate(id, n);
  }
  std::size_t read(io::FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    read_calls++;
    return inner_.read(id, offset, out);
  }
  std::size_t readv(io::FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override {
    readv_calls++;
    return inner_.readv(id, offset, parts);
  }
  void write(io::FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override {
    write_calls++;
    inner_.write(id, offset, data);
  }
  void writev(io::FileId id, std::uint64_t offset,
              std::span<const std::span<const std::byte>> parts) override {
    writev_calls++;
    inner_.writev(id, offset, parts);
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  [[nodiscard]] io::FileId lookup(const std::string& name) const override {
    return inner_.lookup(name);
  }
  void remove(const std::string& name) override { inner_.remove(name); }

  std::atomic<std::uint64_t> write_calls{0};
  std::atomic<std::uint64_t> writev_calls{0};
  std::atomic<std::uint64_t> read_calls{0};
  std::atomic<std::uint64_t> readv_calls{0};

 private:
  io::BackingStore& inner_;
};

struct RunResult {
  double ops_per_sec = 0.0;
};

/// Runs `body(thread_id)` on `threads` threads, returns aggregate ops/sec
/// given that each thread performs `ops_per_thread` operations.
template <typename Body>
RunResult run_threads(int threads, std::uint64_t ops_per_thread, Body body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready++;
      while (!go.load(std::memory_order_acquire)) {
      }
      body(t);
    });
  }
  while (ready.load() < threads) {
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const double sec = std::chrono::duration<double>(Clock::now() - start).count();
  return RunResult{static_cast<double>(threads) * ops_per_thread / sec};
}

void print_row(const char* scenario, std::size_t shards, int threads,
               const RunResult& r, double base_ops) {
  std::printf("%-10s  shards=%-2zu  threads=%d  %12.0f ops/s  speedup %.2fx\n",
              scenario, shards, threads, r.ops_per_sec,
              r.ops_per_sec / base_ops);
}

std::string bp_scenario(const char* base, std::size_t shards, int threads) {
  return std::string(base) + "_shards" + std::to_string(shards) + "_t" +
         std::to_string(threads);
}

void bench_warm_hits(obs::BenchReport& report, std::size_t shards) {
  util::TempDir dir("clio-microbp");
  io::RealFileStore store(dir.path());
  const io::FileId file = store.open("data.bin", true);
  std::vector<std::byte> chunk(kPageSize, std::byte{0x5a});
  for (std::uint64_t p = 0; p < kFilePages; ++p) {
    store.write(file, p * kPageSize, chunk);
  }
  io::BufferPool pool(store,
                      io::BufferPoolConfig{.page_size = kPageSize,
                                           .capacity_pages = kFilePages,
                                           .shards = shards});
  // Warm the whole file so every benched pin is a hit.
  for (std::uint64_t p = 0; p < kFilePages; ++p) pool.prefetch(file, p);

  constexpr std::uint64_t kOps = 400000;
  double base = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    const std::uint64_t span = kFilePages / threads;
    const RunResult r = run_threads(threads, kOps, [&](int t) {
      util::Rng rng(1000 + t);
      const std::uint64_t lo = t * span;
      unsigned long long local = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        auto g = pool.pin(file, lo + rng.uniform_u64(span));
        local += static_cast<unsigned char>(g.data()[0]);
      }
      benchmark_sink = local;
    });
    if (threads == 1) base = r.ops_per_sec;
    print_row("warm-hit", pool.shard_count(), threads, r, base);
    report.scenario(bp_scenario("warm", pool.shard_count(), threads));
    report.metric("ops_per_sec", r.ops_per_sec);
    report.metric("speedup", r.ops_per_sec / base);
  }
}

void bench_miss_churn(obs::BenchReport& report, std::size_t shards) {
  util::TempDir dir("clio-microbp");
  io::RealFileStore store(dir.path());
  const io::FileId file = store.open("data.bin", true);
  std::vector<std::byte> chunk(kPageSize, std::byte{0x5a});
  for (std::uint64_t p = 0; p < kFilePages; ++p) {
    store.write(file, p * kPageSize, chunk);
  }
  io::BufferPool pool(store,
                      io::BufferPoolConfig{.page_size = kPageSize,
                                           .capacity_pages = 128,
                                           .shards = shards});
  constexpr std::uint64_t kOps = 20000;
  double base = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    const std::uint64_t span = kFilePages / threads;
    // Per-thread pin-latency histograms: lock-free push on the hot path,
    // merged after the workers quiesce — the LatencyHistogram aggregation
    // contract.  Cheap enough here because every op reaches the store.
    std::vector<util::LatencyHistogram> pin_latency(
        static_cast<std::size_t>(threads));
    const RunResult r = run_threads(threads, kOps, [&](int t) {
      util::Rng rng(2000 + t);
      const std::uint64_t lo = t * span;
      unsigned long long local = 0;
      util::LatencyHistogram& hist =
          pin_latency[static_cast<std::size_t>(t)];
      for (std::uint64_t i = 0; i < kOps; ++i) {
        util::Stopwatch pin_watch;
        auto g = pool.pin(file, lo + rng.uniform_u64(span));
        hist.push(static_cast<std::uint64_t>(pin_watch.elapsed_ns()));
        local += static_cast<unsigned char>(g.data()[0]);
      }
      benchmark_sink = local;
    });
    util::LatencyHistogram merged;
    for (const auto& h : pin_latency) merged.merge(h);
    if (threads == 1) base = r.ops_per_sec;
    print_row("miss-churn", pool.shard_count(), threads, r, base);
    report.scenario(bp_scenario("miss", pool.shard_count(), threads));
    report.metric("ops_per_sec", r.ops_per_sec);
    report.metric("speedup", r.ops_per_sec / base);
    report.distribution("pin_latency_ns", merged);
  }
}

void bench_flush_coalescing(obs::BenchReport& report) {
  util::TempDir dir("clio-microbp");
  io::RealFileStore real(dir.path());
  CountingStore store(real);
  const io::FileId file = store.open("out.bin", true);
  io::BufferPool pool(store,
                      io::BufferPoolConfig{.page_size = kPageSize,
                                           .capacity_pages = 1024,
                                           .shards = 16});
  constexpr std::uint64_t kDirty = 1024;
  for (std::uint64_t p = 0; p < kDirty; ++p) {
    auto g = pool.pin(file, p);
    std::memset(g.data().data(), static_cast<int>(p & 0xff), kPageSize);
    g.mark_dirty(kPageSize);
  }
  store.write_calls = 0;
  store.writev_calls = 0;
  const auto start = Clock::now();
  pool.flush_all();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  const std::uint64_t calls = store.write_calls + store.writev_calls;
  std::printf(
      "flush       dirty pages=%llu  backing write calls=%llu  "
      "(%.1f pages/call)  %.2f ms\n",
      static_cast<unsigned long long>(kDirty),
      static_cast<unsigned long long>(calls),
      static_cast<double>(kDirty) / static_cast<double>(calls), ms);
  report.scenario("flush_coalescing");
  report.metric("dirty_pages", static_cast<double>(kDirty));
  report.metric("backing_write_calls", static_cast<double>(calls));
  report.metric("pages_per_call",
                static_cast<double>(kDirty) / static_cast<double>(calls));
  report.metric("flush_ms", ms);
}

/// Sequential scans driven by readahead windows, through a pool much
/// smaller than the file so every pass is cold: this is the prefetch-churn
/// path the coalesced readv gather accelerates.
void bench_prefetch_churn(obs::BenchReport& report) {
  util::TempDir dir("clio-microbp");
  io::RealFileStore real(dir.path());
  CountingStore store(real);
  const io::FileId file = store.open("data.bin", true);
  std::vector<std::byte> chunk(kPageSize, std::byte{0x5a});
  for (std::uint64_t p = 0; p < kFilePages; ++p) {
    store.write(file, p * kPageSize, chunk);
  }
  constexpr std::size_t kWindow = 16;
  constexpr int kPasses = 4;
  double base = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    io::BufferPool pool(
        store, io::BufferPoolConfig{.page_size = kPageSize,
                                    .capacity_pages = 256,
                                    .shards = 16});
    const std::uint64_t span = kFilePages / threads;
    const std::uint64_t pages_per_thread = span * kPasses;
    store.read_calls = 0;
    store.readv_calls = 0;
    const RunResult r = run_threads(threads, pages_per_thread, [&](int t) {
      const std::uint64_t lo = t * span;
      unsigned long long local = 0;
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::uint64_t p = 0; p < span; p += kWindow) {
          const std::size_t n =
              static_cast<std::size_t>(std::min<std::uint64_t>(kWindow,
                                                               span - p));
          pool.prefetch_range(file, lo + p, n);
          // Consume the window like a sequential reader: every page is
          // resident already, so no pin re-issues a per-page load.
          for (std::size_t i = 0; i < n; ++i) {
            auto g = pool.pin(file, lo + p + i);
            local += static_cast<unsigned char>(g.data()[0]);
          }
        }
      }
      benchmark_sink = local;
    });
    if (threads == 1) base = r.ops_per_sec;
    report.scenario("prefetch_sync_t" + std::to_string(threads));
    report.metric("pages_per_sec", r.ops_per_sec);
    report.metric("speedup", r.ops_per_sec / base);
    report.metric("readv_calls", static_cast<double>(store.readv_calls));
    report.metric("read_calls", static_cast<double>(store.read_calls));
    std::printf(
        "%-10s  %-5s      threads=%d  %12.0f pages/s  speedup %.2fx  "
        "(%llu readv + %llu read calls)\n",
        "prefetch", "sync", threads, r.ops_per_sec,
        r.ops_per_sec / base,
        static_cast<unsigned long long>(store.readv_calls),
        static_cast<unsigned long long>(store.read_calls));
  }
  const std::uint64_t total_pages = kFilePages * kPasses;
  const std::uint64_t calls = store.read_calls + store.readv_calls;
  if (calls > 0) {
    std::printf("prefetch    sync       batching: %.1f pages/backing call "
                "(8-thread run)\n",
                static_cast<double>(total_pages) /
                    static_cast<double>(calls));
  }
}

/// Degraded-mode churn: the miss/evict mix with dirty pages and periodic
/// flushes, against a fault-injecting store.  The interesting numbers are
/// how much throughput the error paths cost (unwinds, retries, kept-dirty
/// pages) and that the pool survives the storm with its invariants intact.
void bench_fault_churn(obs::BenchReport& report) {
  constexpr std::uint64_t kOps = 20000;
  for (const bool degraded : {false, true}) {
    util::TempDir dir("clio-microbp");
    io::RealFileStore real(dir.path());
    io::FaultPlan plan;
    plan.seed = 0xbadd15c;
    if (degraded) {
      plan.fail_prob = {0.01, 0.01, 0.01, 0.01};
      plan.short_read_prob = 0.01;
      plan.torn_write_prob = 0.01;
      plan.torn_granularity = kPageSize;
      plan.latency_prob = 0.005;
      plan.latency_us = 30;
    }
    io::FaultStore store(real, plan);
    store.arm(false);
    const io::FileId file = store.open("data.bin", true);
    std::vector<std::byte> chunk(kPageSize, std::byte{0x5a});
    for (std::uint64_t p = 0; p < kFilePages; ++p) {
      store.write(file, p * kPageSize, chunk);
    }
    io::BufferPool pool(store,
                        io::BufferPoolConfig{.page_size = kPageSize,
                                             .capacity_pages = 128,
                                             .shards = 16});
    store.arm(true);
    for (int threads : {1, 8}) {
      store.reset();  // per-iteration fault counters (keeps the same seed)
      const std::uint64_t span = kFilePages / threads;
      std::atomic<std::uint64_t> errors{0};
      std::vector<util::LatencyHistogram> op_latency(
          static_cast<std::size_t>(threads));
      const RunResult r = run_threads(threads, kOps, [&](int t) {
        util::Rng rng(4000 + t);
        const std::uint64_t lo = t * span;
        unsigned long long local = 0;
        util::LatencyHistogram& hist =
            op_latency[static_cast<std::size_t>(t)];
        for (std::uint64_t i = 0; i < kOps; ++i) {
          const std::uint64_t page = lo + rng.uniform_u64(span);
          util::Stopwatch op_watch;
          try {
            if (i % 4 == 0) {
              auto g = pool.pin(file, page);
              g.data()[0] = static_cast<std::byte>(i);
              g.mark_dirty(kPageSize);
            } else if (i % 512 == 511) {
              pool.flush_file(file);
            } else {
              auto g = pool.pin(file, page);
              local += static_cast<unsigned char>(g.data()[0]);
            }
          } catch (const util::IoError&) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          hist.push(static_cast<std::uint64_t>(op_watch.elapsed_ns()));
        }
        benchmark_sink = local;
      });
      util::LatencyHistogram merged;
      for (const auto& h : op_latency) merged.merge(h);
      const io::FaultStats fstats = store.stats();
      report.scenario(std::string("faults_") +
                      (degraded ? "degraded" : "clean") + "_t" +
                      std::to_string(threads));
      report.metric("ops_per_sec", r.ops_per_sec);
      report.metric("injected_faults",
                    static_cast<double>(fstats.total_faults()));
      report.metric("surfaced_errors", static_cast<double>(errors.load()));
      report.distribution("op_latency_ns", merged);
      std::printf(
          "faults      %-8s   threads=%d  %12.0f ops/s  "
          "(%llu injected, %llu surfaced)\n",
          degraded ? "degraded" : "clean", threads, r.ops_per_sec,
          static_cast<unsigned long long>(fstats.total_faults()),
          static_cast<unsigned long long>(errors.load()));
    }
    store.arm(false);
    pool.flush_all();
    try {
      pool.debug_validate();
    } catch (const util::IoError& e) {
      std::printf("faults      INVARIANT VIOLATION: %s\n", e.what());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "all";
  const auto enabled = [&](const char* name) {
    return mode == "all" || mode == name;
  };
  std::printf("micro_bufferpool — hot-path concurrency microbenchmark\n");
  std::printf("hardware threads: %u\n\n", std::thread::hardware_concurrency());

  obs::BenchReport report("micro_bufferpool");
  if (enabled("warm")) {
    std::printf("-- warm hits, single global stripe (pre-sharding layout) --\n");
    bench_warm_hits(report, 1);
    std::printf("\n-- warm hits, 16-way sharding --\n");
    bench_warm_hits(report, 16);
    std::printf("\n");
  }
  if (enabled("miss")) {
    std::printf("-- miss/evict churn, single stripe --\n");
    bench_miss_churn(report, 1);
    std::printf("\n-- miss/evict churn, 16-way sharding --\n");
    bench_miss_churn(report, 16);
    std::printf("\n");
  }
  if (enabled("flush")) {
    std::printf("-- coalesced write-back --\n");
    bench_flush_coalescing(report);
    std::printf("\n");
  }
  if (enabled("prefetch")) {
    std::printf("-- prefetch churn, coalesced readv (inline) --\n");
    bench_prefetch_churn(report);
    std::printf("\n");
  }
  if (enabled("faults")) {
    std::printf("-- degraded mode: seeded fault injection --\n");
    bench_fault_churn(report);
    std::printf("\n");
  }
  const std::string json_path = report.write_default();
  if (!json_path.empty()) {
    std::printf("\nmachine-readable report: %s\n", json_path.c_str());
  }
  return 0;
}
