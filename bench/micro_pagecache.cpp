// Microbenchmarks / ablations of the managed I/O stack (DESIGN.md §5,
// decisions 2-3): buffer-pool hit vs miss cost, the cold-seek touch behind
// the Tables 1-4 cold-spike behaviour, and write-back-on-close.
#include <benchmark/benchmark.h>

#include "io/managed_file.hpp"
#include "util/fs.hpp"
#include "util/temp_dir.hpp"

namespace {

using namespace clio;

constexpr std::uint64_t kFileBytes = 8ULL << 20;

struct Env {
  explicit Env(io::ManagedFsOptions options)
      : dir("clio-microio"),
        fs(std::make_unique<io::RealFileStore>(dir.path()), options) {
    util::create_sample_file(dir.path() / "data.bin", kFileBytes);
  }
  util::TempDir dir;
  io::ManagedFileSystem fs;
};

void BM_PoolHit(benchmark::State& state) {
  Env env{io::ManagedFsOptions{}};
  auto file = env.fs.open("data.bin", io::OpenMode::kRead);
  std::vector<std::byte> buf(4096);
  file.seek(0);
  file.read(buf);  // warm the page
  for (auto _ : state) {
    file.seek(0);
    benchmark::DoNotOptimize(file.read(buf));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PoolHit);

void BM_PoolMissSequential(benchmark::State& state) {
  // Each iteration streams 1 MiB through a pool far smaller than the file,
  // so pages keep missing.
  io::ManagedFsOptions options;
  options.pool_pages = 64;  // 256 KiB pool
  Env env{options};
  auto file = env.fs.open("data.bin", io::OpenMode::kRead);
  std::vector<std::byte> buf(64 * 1024);
  std::uint64_t pos = 0;
  for (auto _ : state) {
    if (pos + (1 << 20) > kFileBytes) pos = 0;
    file.seek(pos);
    for (int i = 0; i < 16; ++i) {
      benchmark::DoNotOptimize(file.read(buf));
    }
    pos += 1 << 20;
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
  state.counters["seek_touches"] = static_cast<double>(
      env.fs.pool().stats().prefetches);
}
BENCHMARK(BM_PoolMissSequential);

void BM_WritebackOnClose(benchmark::State& state) {
  // Decision 3: close flushes dirty pages, which is why the paper sees
  // close > open.  Measures a write-then-close cycle.
  Env env{io::ManagedFsOptions{}};
  std::vector<std::byte> payload(64 * 1024, std::byte{0x5a});
  int i = 0;
  for (auto _ : state) {
    auto file = env.fs.open("out" + std::to_string(i++ % 8) + ".bin",
                            io::OpenMode::kTruncate);
    file.write(payload);
    file.close();
  }
  state.SetBytesProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_WritebackOnClose);

void BM_ColdSeekVsWarmSeek(benchmark::State& state) {
  // The Table 3/4 contrast in isolation: seek to a cold page (fetch) vs a
  // warm one (no-op).  range(0)==1 selects the warm case.  The cold case
  // cycles through 128 pages (a 64 KiB stride over the 8 MiB file), four
  // times what the pool holds, so every seek finds its page evicted.
  io::ManagedFsOptions options;
  options.pool_pages = 32;
  Env env{options};
  auto file = env.fs.open("data.bin", io::OpenMode::kRead);
  const bool warm = state.range(0) == 1;
  std::uint64_t offset = 0;
  for (auto _ : state) {
    if (warm) {
      file.seek(0);
    } else {
      offset = (offset + (64 << 10)) % kFileBytes;
      file.seek(offset);
    }
  }
}
BENCHMARK(BM_ColdSeekVsWarmSeek)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
