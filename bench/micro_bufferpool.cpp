// Multithreaded buffer-pool microbenchmark: measures the de-serialization
// work in the I/O hot path (sharded lock striping, I/O outside the shard
// lock, coalesced write-back).
//
// Scenarios:
//   warm-hit   — every pin is a cache hit on the thread's own page range;
//                under the old single pool mutex this was ~flat with thread
//                count, with shards it should scale on multi-core hosts.
//   warm-op    — one thread's managed ops on resident pages: ns per
//                ManagedFile::seek, per seek(0)+seek(off) (a replayed seek
//                record), per seek + 512 B read, per 512 B read_at (a
//                replayed read record) and per 6 KiB read_at, which
//                crosses a page boundary.
//   read_at    — warm 4 KiB read_at calls at 1/2/4/8 threads, all on one
//                16-page run (one shard), each thread with its own handle.
//   miss-churn — pool much smaller than the file, every access evicts and
//                loads; measures how much the loads serialize.
//   flush      — dirties a sequentially-written file and flushes, reporting
//                backing-store write calls vs dirty pages (coalescing win).
//   gather     — sequential scans through a pool much smaller than the file,
//                in 16-page pin_span windows as a request's copy pins
//                them: measures the coalesced readv gather path, reporting
//                pages/s plus the backing read-batching ratio.
//   post       — one POST's file steps (truncating open, 4 KiB write,
//                flushing close of a new file) with 1k and with 64k pages
//                of other files resident: the per-file index keeps the
//                cycle's cost flat in the pool's resident page count.
//   around     — one 512 KiB read_around and write_around (128 pages)
//                with 0, 64 and 2,048 resident pages of the same file
//                outside the span, and with the whole span resident, over
//                a store that moves no bytes: ns per call of the around
//                paths' resident-page pass plus the copies they make.
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
// Usage: micro_bufferpool [all|warm|miss|flush|gather|post|around|faults]
// (default: all)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/fault_store.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "io/store_decorator.hpp"
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

/// Sequential scans in pin_span windows, through a pool much smaller than
/// the file so every pass is cold: each window's first pin gathers its
/// cold pages, one readv per run, and the rest of its pins are hits.
void bench_gather_churn(obs::BenchReport& report) {
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
          // Consume the window like a request's copy: one pin at a time,
          // each naming the window's last page.
          const std::uint64_t last = lo + p + n - 1;
          for (std::uint64_t q = lo + p; q <= last; ++q) {
            auto g = pool.pin_span(file, q, last);
            local += static_cast<unsigned char>(g.data()[0]);
          }
        }
      }
      benchmark_sink = local;
    });
    if (threads == 1) base = r.ops_per_sec;
    report.scenario("gather_t" + std::to_string(threads));
    report.metric("pages_per_sec", r.ops_per_sec);
    report.metric("speedup", r.ops_per_sec / base);
    report.metric("readv_calls", static_cast<double>(store.readv_calls));
    report.metric("read_calls", static_cast<double>(store.read_calls));
    std::printf(
        "%-10s  %-5s      threads=%d  %12.0f pages/s  speedup %.2fx  "
        "(%llu readv + %llu read calls)\n",
        "gather", "sync", threads, r.ops_per_sec,
        r.ops_per_sec / base,
        static_cast<unsigned long long>(store.readv_calls),
        static_cast<unsigned long long>(store.read_calls));
  }
  const std::uint64_t total_pages = kFilePages * kPasses;
  const std::uint64_t calls = store.read_calls + store.readv_calls;
  if (calls > 0) {
    std::printf("gather      sync       batching: %.1f pages/backing call "
                "(8-thread run)\n",
                static_cast<double>(total_pages) /
                    static_cast<double>(calls));
  }
}

/// Warm managed ops on one thread: a 1 MiB file wholly resident in a
/// default-sized pool over a real store, and five op shapes timed in
/// batches, the shapes taking turns so machine noise lands on all of them.
/// Each batch is one clock read around kOps ops, so the numbers carry no
/// per-op clock cost; the median batch is reported.
void bench_warm_ops(obs::BenchReport& report) {
  constexpr std::uint64_t kPages = 256;
  constexpr std::size_t kRead = 512;
  constexpr std::size_t kSpan = 6 * 1024;  ///< 2-3 pages from a slot
  constexpr std::uint64_t kOps = 200000;
  constexpr int kBatches = 7;
  util::TempDir dir("clio-microbp");
  io::ManagedFileSystem fs(std::make_unique<io::RealFileStore>(dir.path()));
  io::ManagedFile file = fs.open("warm.bin", io::OpenMode::kTruncate);
  const std::vector<std::byte> content(kPages * kPageSize, std::byte{0x2b});
  file.write(content);
  std::vector<std::byte> buf(kSpan);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    static_cast<void>(file.read_at(p * kPageSize, std::span(buf).first(kRead)));
  }
  // Random 512-byte slots, none crossing a page, so every op is a hit.
  // The 6 KiB span starts at a slot of the first kPages - 2 pages, so it
  // ends inside the file.
  util::Rng rng(7);
  std::vector<std::uint64_t> offsets(4096);
  for (auto& off : offsets) {
    off = rng.uniform_u64(kPages) * kPageSize +
          rng.uniform_u64(kPageSize / kRead) * kRead;
  }
  struct Shape {
    const char* name;
    void (*op)(io::ManagedFile&, std::uint64_t, std::span<std::byte>);
    std::size_t bytes = kRead;  ///< the op's buffer
    util::LatencyHistogram hist = {};
    std::vector<double> ns = {};
  };
  Shape shapes[] = {
      {.name = "seek",
       .op = [](io::ManagedFile& f, std::uint64_t off,
                std::span<std::byte>) { f.seek(off); }},
      {.name = "seek0_seek",
       .op = [](io::ManagedFile& f, std::uint64_t off,
                std::span<std::byte>) {
         f.seek(0);
         f.seek(off);
       }},
      {.name = "seek_read",
       .op = [](io::ManagedFile& f, std::uint64_t off,
                std::span<std::byte> out) {
         f.seek(off);
         static_cast<void>(f.read(out));
       }},
      {.name = "read_at",
       .op = [](io::ManagedFile& f, std::uint64_t off,
                std::span<std::byte> out) {
         static_cast<void>(f.read_at(off, out));
       }},
      {.name = "read_at_6k",
       .op = [](io::ManagedFile& f, std::uint64_t off,
                std::span<std::byte> out) {
         static_cast<void>(
             f.read_at(off % ((kPages - 2) * kPageSize), out));
       },
       .bytes = kSpan}};
  unsigned long long local = 0;
  for (int b = 0; b < kBatches; ++b) {
    for (Shape& shape : shapes) {
      const auto start = Clock::now();
      for (std::uint64_t i = 0; i < kOps; ++i) {
        shape.op(file, offsets[i % offsets.size()],
                 std::span(buf).first(shape.bytes));
      }
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - start)
              .count() /
          kOps;
      local += static_cast<unsigned char>(buf[0]);
      shape.hist.push(static_cast<std::uint64_t>(ns));
      shape.ns.push_back(ns);
    }
  }
  benchmark_sink = local;
  const io::PoolStats stats = fs.pool().stats();
  for (Shape& shape : shapes) {
    std::vector<double>& v = shape.ns;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    std::printf("warm-op     %-11s %8.1f ns/op (median of %d batches of "
                "%llu)\n",
                shape.name, v[v.size() / 2], kBatches,
                static_cast<unsigned long long>(kOps));
    report.scenario(std::string("warm_op_") + shape.name);
    report.metric("ns_per_op", v[v.size() / 2]);
    report.distribution("batch_ns_per_op", shape.hist);
  }
  std::printf("warm-op     pool misses %llu (the setup's loads), seek "
              "touches %llu\n",
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.prefetches));
}

/// Warm 4 KiB read_at calls on 1/2/4/8 threads, each with its own handle
/// and all on one 16-page run, so one shard: the contended case for a
/// warm copy made under the shard lock.
void bench_warm_read_threads(obs::BenchReport& report) {
  constexpr std::uint64_t kPages = io::BufferPool::kRunPages;
  constexpr std::uint64_t kOps = 200000;
  util::TempDir dir("clio-microbp");
  io::ManagedFileSystem fs(std::make_unique<io::RealFileStore>(dir.path()));
  io::ManagedFile writer = fs.open("hot.bin", io::OpenMode::kTruncate);
  writer.write(std::vector<std::byte>(kPages * kPageSize, std::byte{0x3c}));
  std::vector<io::ManagedFile> handles;
  for (int t = 0; t < 8; ++t) {
    handles.push_back(fs.open("hot.bin", io::OpenMode::kRead));
  }
  double base = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    const RunResult r = run_threads(threads, kOps, [&](int t) {
      util::Rng rng(3000 + t);
      std::vector<std::byte> buf(kPageSize);
      unsigned long long local = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        static_cast<void>(handles[static_cast<std::size_t>(t)].read_at(
            rng.uniform_u64(kPages) * kPageSize, buf));
        local += static_cast<unsigned char>(buf[0]);
      }
      benchmark_sink = local;
    });
    if (threads == 1) base = r.ops_per_sec;
    print_row("read_at", fs.pool().shard_count(), threads, r, base);
    report.scenario("warm_read_at_one_run_t" + std::to_string(threads));
    report.metric("ops_per_sec", r.ops_per_sec);
    report.metric("speedup", r.ops_per_sec / base);
  }
}

/// POST cycles (truncating open, one-page write, flushing close of a new
/// file, as the web server's POST runs them) on two pools of one size,
/// one with 1k resident pages of other files and one with 64k.  The
/// cycles alternate between the pools, so machine noise lands on both.
void bench_post_cycles(obs::BenchReport& report) {
  constexpr std::size_t kFew = 1024;
  constexpr std::size_t kMany = 64 * 1024;
  constexpr std::size_t kOtherFilePages = 64;
  constexpr int kCycles = 1000;
  util::TempDir dir("clio-microbp");
  io::ManagedFsOptions options;
  options.page_size = kPageSize;
  options.pool_pages = kMany + 64;
  struct Side {
    const char* name;
    std::size_t resident;
    std::unique_ptr<io::ManagedFileSystem> fs;
    util::LatencyHistogram cycle_ns;
    std::vector<double> us;
  };
  Side sides[] = {{"1k", kFew, nullptr, {}, {}},
                  {"64k", kMany, nullptr, {}, {}}};
  for (Side& side : sides) {
    const std::filesystem::path root = dir.path() / side.name;
    std::filesystem::create_directories(root);
    side.fs = std::make_unique<io::ManagedFileSystem>(
        std::make_unique<io::RealFileStore>(root), options);
    // Pages past EOF load as zeros: resident, clean, no store bytes.
    for (std::size_t f = 0; f < side.resident / kOtherFilePages; ++f) {
      auto file =
          side.fs->open("other" + std::to_string(f), io::OpenMode::kTruncate);
      for (std::uint64_t p = 0; p < kOtherFilePages; ++p) {
        static_cast<void>(side.fs->pool().pin(file.id(), p));
      }
    }
  }
  const std::vector<std::byte> body(kPageSize, std::byte{0x70});
  for (int i = 0; i < kCycles; ++i) {
    for (Side& side : sides) {
      util::Stopwatch watch;
      auto file = side.fs->open("post" + std::to_string(i),
                                io::OpenMode::kTruncate);
      file.write(body);
      file.close();
      const auto ns = static_cast<std::uint64_t>(watch.elapsed_ns());
      side.cycle_ns.push(ns);
      side.us.push_back(static_cast<double>(ns) / 1e3);
    }
  }
  double median_us[2] = {0.0, 0.0};
  for (std::size_t k = 0; k < 2; ++k) {
    Side& side = sides[k];
    std::vector<double>& us = side.us;
    std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
    median_us[k] = us[us.size() / 2];
    std::printf("post        resident pages=%-6zu  %8.1f us/cycle (median of "
                "%d)\n",
                side.resident, median_us[k], kCycles);
    report.scenario(std::string("post_resident_") + side.name);
    report.metric("resident_pages", static_cast<double>(side.resident));
    report.metric("median_us_per_cycle", median_us[k]);
    report.distribution("post_cycle_ns", side.cycle_ns);
  }
  std::printf("post        64k / 1k median ratio: %.2f\n",
              median_us[1] / median_us[0]);
  report.scenario("post_resident_64k");
  report.metric("ratio_to_1k", median_us[1] / median_us[0]);
}

/// Keeps an in-memory store's files and sizes but moves no bytes: a read
/// claims every byte and leaves the buffer as it is, a write is dropped.
/// Over it, the around paths' time is the pool's own work: finding the
/// resident pages and copying them.
class NoCopyStore final : public io::StoreDecorator {
 public:
  using StoreDecorator::StoreDecorator;
  std::size_t read(io::FileId, std::uint64_t,
                   std::span<std::byte> out) override {
    return out.size();
  }
  void write(io::FileId, std::uint64_t, std::span<const std::byte>) override {}
};

/// read_around and write_around of one 512 KiB span in four shapes of
/// residency, each its own file and pool over one store that moves no
/// bytes: the span alone, the span beside 64 or 2,048 resident pages of
/// its file, and the span wholly resident.  The calls alternate between
/// the shapes, so machine noise lands on all of them.
void bench_around(obs::BenchReport& report) {
  constexpr std::size_t kSpanPages = 128;
  constexpr std::uint64_t kSpanFirst = 64;
  constexpr std::uint64_t kOutsideFirst = kSpanFirst + kSpanPages + 64;
  constexpr std::size_t kMostOutside = 2048;
  constexpr std::uint64_t kFileBytes =
      (kOutsideFirst + kMostOutside) * kPageSize;
  constexpr int kCalls = 400;
  io::SimFileStore sim(1, 64 * 1024);
  NoCopyStore store(sim);
  struct Shape {
    const char* name;
    std::size_t outside;
    bool span_resident;
    std::unique_ptr<io::BufferPool> pool = nullptr;
    io::FileId file = io::kInvalidFile;
    util::LatencyHistogram read_hist = {};
    util::LatencyHistogram write_hist = {};
    std::vector<double> read_ns = {};
    std::vector<double> write_ns = {};
  };
  Shape shapes[] = {
      {.name = "none", .outside = 0, .span_resident = false},
      {.name = "outside_64", .outside = 64, .span_resident = false},
      {.name = "outside_2048", .outside = kMostOutside, .span_resident = false},
      {.name = "span", .outside = 0, .span_resident = true}};
  const std::vector<std::byte> zeros(kFileBytes, std::byte{0});
  for (Shape& shape : shapes) {
    shape.file = store.open(std::string("around_") + shape.name, true);
    sim.write(shape.file, 0, zeros);
    shape.pool = std::make_unique<io::BufferPool>(
        store, io::BufferPoolConfig{.page_size = kPageSize,
                                    .capacity_pages = 4096,
                                    .shards = 16});
    for (std::uint64_t p = 0; p < shape.outside; ++p) {
      static_cast<void>(shape.pool->pin(shape.file, kOutsideFirst + p));
    }
    for (std::uint64_t p = 0; shape.span_resident && p < kSpanPages; ++p) {
      static_cast<void>(shape.pool->pin(shape.file, kSpanFirst + p));
    }
  }
  std::vector<std::byte> buf(kSpanPages * kPageSize);
  const std::vector<std::byte> data(buf.size(), std::byte{0x3c});
  unsigned long long local = 0;
  for (int i = 0; i < kCalls; ++i) {
    for (Shape& shape : shapes) {
      util::Stopwatch read_watch;
      shape.pool->read_around(shape.file, kSpanFirst * kPageSize, buf);
      const auto read_ns = static_cast<std::uint64_t>(read_watch.elapsed_ns());
      local += static_cast<unsigned char>(buf[static_cast<std::size_t>(i)]);
      util::Stopwatch write_watch;
      shape.pool->write_around(shape.file, kSpanFirst * kPageSize, data);
      const auto write_ns =
          static_cast<std::uint64_t>(write_watch.elapsed_ns());
      shape.read_hist.push(read_ns);
      shape.write_hist.push(write_ns);
      shape.read_ns.push_back(static_cast<double>(read_ns));
      shape.write_ns.push_back(static_cast<double>(write_ns));
    }
  }
  benchmark_sink = local;
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  for (Shape& shape : shapes) {
    const double read_ns = median(shape.read_ns);
    const double write_ns = median(shape.write_ns);
    std::printf("around      %-13s read_around %8.0f ns  write_around %8.0f "
                "ns (median of %d)\n",
                shape.name, read_ns, write_ns, kCalls);
    report.scenario(std::string("around_") + shape.name);
    report.metric("read_ns", read_ns);
    report.metric("write_ns", write_ns);
    report.distribution("read_around_ns", shape.read_hist);
    report.distribution("write_around_ns", shape.write_hist);
    shape.pool->debug_validate();
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
    std::printf("\n-- warm managed ops, one thread --\n");
    bench_warm_ops(report);
    std::printf("\n-- warm 4 KiB read_at, all threads on one 16-page run --\n");
    bench_warm_read_threads(report);
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
  if (enabled("gather")) {
    std::printf("-- request gather churn, coalesced readv (pin_span) --\n");
    bench_gather_churn(report);
    std::printf("\n");
  }
  if (enabled("post")) {
    std::printf("-- POST cycle vs resident pages of other files --\n");
    bench_post_cycles(report);
    std::printf("\n");
  }
  if (enabled("around")) {
    std::printf("-- 512 KiB read_around/write_around vs resident pages --\n");
    bench_around(report);
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
