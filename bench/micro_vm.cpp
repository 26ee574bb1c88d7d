// Microbenchmarks of the mini-CLI execution engine — the managed-runtime
// axis of the paper ("Benchmarking the CLI for I/O-Intensive Computing"):
// what does running the SAME kernel as managed bytecode cost, relative to
// native C++, when both sides do their I/O through the SAME managed
// filesystem?
//
// Scenarios:
//   interp   — raw interpreter throughput on a tight arithmetic loop run
//              from the fused tier: source Minstructions/s, and how many
//              handler dispatches each source instruction cost.
//   jit      — first-request delay: eager compile (threshold 1, the Table 6
//              cold-start) vs the warm-up tier (threshold 16: early calls
//              interpret, the hot method compiles later).
//   fileio   — the managed read path: file_read into a Value array (one
//              boxed i64 per byte, the old path) vs into a byte buffer
//              (one span copy, the fast path), MB/s over a 4 MiB file.
//   bitap    — the Pgrep kernel (exact shift-and matching): VM bytecode vs
//              native BitapStreamScanner over the same corpus file, same
//              chunking, same buffer pool.  Reports both MB/s, the
//              managed-over-native slowdown and the managed side's
//              dispatches per source instruction; aborts if match counts
//              differ.
//   dmine    — the Dmine kernel (Apriori candidate counting) likewise, over
//              fixed 16-byte basket records.
//
// Usage: micro_vm [all|interp|jit|fileio|bitap|dmine] (default: all)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/dmine/candidate_count.hpp"
#include "apps/pgrep/bitap.hpp"
#include "io/file_store.hpp"
#include "obs/bench_report.hpp"
#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/temp_dir.hpp"
#include "vm/assembler.hpp"
#include "vm/kernels.hpp"
#include "vm/runtime.hpp"

namespace {

using namespace clio;

volatile long long benchmark_sink = 0;

io::ManagedFileSystem make_fs(const util::TempDir& dir) {
  return io::ManagedFileSystem(
      std::make_unique<io::RealFileStore>(dir.path()),
      io::ManagedFsOptions{});
}

void write_file(io::ManagedFileSystem& fs, const std::string& name,
                std::span<const std::byte> data) {
  auto file = fs.open(name, io::OpenMode::kTruncate);
  file.write(data);
  file.close();
}

// ------------------------------------------------------------- interp ----

void bench_interp(obs::BenchReport& report) {
  vm::EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  vm::ExecutionEngine engine(vm::assemble(vm::kernels::kSpinSource), options);
  const auto idx = engine.method_index("spin_sum");
  const std::vector<vm::Value> args{vm::Value::from_int(20000)};
  // Warm up (forces the compile), then measure.
  benchmark_sink = engine.call_index(idx, args).as_int();
  const auto insns_before = engine.instructions_executed();
  const auto dispatches_before = engine.dispatches_executed();
  util::Stopwatch watch;
  constexpr int kReps = 150;
  for (int i = 0; i < kReps; ++i) {
    benchmark_sink = engine.call_index(idx, args).as_int();
  }
  const double sec = watch.elapsed_ms() / 1e3;
  const double insns =
      static_cast<double>(engine.instructions_executed() - insns_before);
  const double dispatches =
      static_cast<double>(engine.dispatches_executed() - dispatches_before);
  std::printf("fused tier: %.1f M insns/s   %.3f dispatches/insn\n",
              insns / sec / 1e6, dispatches / insns);
  report.scenario("interp_loop");
  report.metric("minsns_per_sec", insns / sec / 1e6);
  report.metric("dispatches_per_insn", dispatches / insns);
}

// ---------------------------------------------------------------- jit ----

void bench_jit(obs::BenchReport& report) {
  const std::vector<vm::Value> args{vm::Value::from_int(64)};

  // Eager tier (compile_threshold = 1): the first call pays the full
  // verify+decode+codegen cost — the paper's first-request delay.
  util::LatencyHistogram eager_first;
  util::LatencyHistogram warm;
  vm::EngineOptions eager;
  eager.jit.compile_threshold = 1;
  vm::ExecutionEngine engine(vm::assemble(vm::kernels::kSpinSource), eager);
  const auto idx = engine.method_index("spin_sum");
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    engine.flush_jit_cache();
    util::Stopwatch first_watch;
    benchmark_sink = engine.call_index(idx, args).as_int();
    eager_first.push(static_cast<std::uint64_t>(
        first_watch.elapsed_ms() * 1e6));
    for (int i = 0; i < 20; ++i) {
      util::Stopwatch warm_watch;
      benchmark_sink = engine.call_index(idx, args).as_int();
      warm.push(static_cast<std::uint64_t>(warm_watch.elapsed_ms() * 1e6));
    }
  }

  // Warm-up tier (threshold 16): early calls interpret — the cold call is
  // cheap — and the compile lands on the 16th invocation.
  util::LatencyHistogram tiered_first;
  vm::EngineOptions tiered;
  tiered.jit.compile_threshold = 16;
  vm::ExecutionEngine tiered_engine(vm::assemble(vm::kernels::kSpinSource),
                                    tiered);
  const auto tidx = tiered_engine.method_index("spin_sum");
  for (int t = 0; t < kTrials; ++t) {
    tiered_engine.flush_jit_cache();
    util::Stopwatch first_watch;
    benchmark_sink = tiered_engine.call_index(tidx, args).as_int();
    tiered_first.push(static_cast<std::uint64_t>(
        first_watch.elapsed_ms() * 1e6));
    for (int i = 0; i < 20; ++i) {
      benchmark_sink = tiered_engine.call_index(tidx, args).as_int();
    }
  }
  const auto& stats = tiered_engine.jit_stats();

  std::printf(
      "first call:  eager p50 %8llu ns   tiered p50 %8llu ns\n"
      "warm call:         p50 %8llu ns\n"
      "tiered engine: %llu compilations, %llu interpreted calls, "
      "%llu guard misses\n"
      "per compilation: modeled %.1f us, fused-stream translation %.2f us\n",
      static_cast<unsigned long long>(eager_first.quantile_ns(0.5)),
      static_cast<unsigned long long>(tiered_first.quantile_ns(0.5)),
      static_cast<unsigned long long>(warm.quantile_ns(0.5)),
      static_cast<unsigned long long>(stats.compilations),
      static_cast<unsigned long long>(stats.interpreted_calls),
      static_cast<unsigned long long>(stats.guard_misses),
      stats.total_compile_ms * 1e3 / static_cast<double>(stats.compilations),
      stats.translate_ms * 1e3 / static_cast<double>(stats.compilations));

  report.scenario("jit_first_request");
  report.metric("eager_first_call_p50_ns",
                static_cast<double>(eager_first.quantile_ns(0.5)));
  report.metric("tiered_first_call_p50_ns",
                static_cast<double>(tiered_first.quantile_ns(0.5)));
  report.metric("warm_call_p50_ns",
                static_cast<double>(warm.quantile_ns(0.5)));
  report.metric("tiered_interpreted_calls",
                static_cast<double>(stats.interpreted_calls));
  report.metric("tiered_guard_misses",
                static_cast<double>(stats.guard_misses));
  report.metric("translate_us_per_compile",
                stats.translate_ms * 1e3 /
                    static_cast<double>(stats.compilations));
  report.distribution("eager_first_call_ns", eager_first);
  report.distribution("tiered_first_call_ns", tiered_first);
  report.distribution("warm_call_ns", warm);
}

// ------------------------------------------------------------- fileio ----

const char* const kReadLoopSource = R"(
.method read_all_buf 2 3
  ldarg 0
  ldc 0
  syscall file_open
  stloc 0
  ldarg 1
  syscall buf_new
  stloc 1
loop:
  ldloc 0
  ldloc 1
  ldarg 1
  syscall file_read
  stloc 2
  ldloc 2
  brtrue loop
  ldloc 0
  syscall file_close
  ret
.end

.method read_all_arr 2 3
  ldarg 0
  ldc 0
  syscall file_open
  stloc 0
  ldarg 1
  newarr
  stloc 1
loop:
  ldloc 0
  ldloc 1
  ldarg 1
  syscall file_read
  stloc 2
  ldloc 2
  brtrue loop
  ldloc 0
  syscall file_close
  ret
.end
)";

void bench_fileio(obs::BenchReport& report) {
  util::TempDir dir;
  auto fs = make_fs(dir);
  constexpr std::size_t kFileBytes = 4 << 20;
  constexpr std::int64_t kChunk = 64 * 1024;
  {
    util::Rng rng(99);
    std::vector<std::byte> data(kFileBytes);
    for (auto& b : data) {
      b = static_cast<std::byte>(rng.uniform_u64(256));
    }
    write_file(fs, "payload.bin", data);
  }
  vm::EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  vm::ExecutionEngine engine(vm::assemble(kReadLoopSource), options, &fs);

  const auto run = [&](const char* method) {
    // One warm-up pass loads the pool, then three timed passes.
    engine.call(method, {vm::kernels::make_string("payload.bin"),
                         vm::Value::from_int(kChunk)});
    util::Stopwatch watch;
    constexpr int kReps = 3;
    for (int i = 0; i < kReps; ++i) {
      engine.call(method, {vm::kernels::make_string("payload.bin"),
                           vm::Value::from_int(kChunk)});
    }
    const double sec = watch.elapsed_ms() / 1e3;
    return kReps * (kFileBytes / 1e6) / sec;
  };

  const double boxed = run("read_all_arr");
  const double buffer = run("read_all_buf");
  std::printf(
      "file_read 4 MiB, 64 KiB chunks:  boxed array %8.1f MB/s   "
      "byte buffer %8.1f MB/s   (x%.1f)\n",
      boxed, buffer, buffer / boxed);
  report.scenario("file_read_boxed");
  report.metric("mb_per_sec", boxed);
  report.scenario("file_read_buffer");
  report.metric("mb_per_sec", buffer);
  report.metric("speedup_vs_boxed", buffer / boxed);
}

// ----------------------------------------------------- managed vs native ----

/// One timed managed call: its result, wall time and the handler
/// dispatches each source instruction cost.
struct ManagedRun {
  long long result = 0;
  double ms = 0.0;
  double dispatches_per_insn = 0.0;
};

ManagedRun run_managed(vm::ExecutionEngine& engine, const char* method,
                       const std::vector<vm::Value>& args) {
  const auto insns_before = engine.instructions_executed();
  const auto dispatches_before = engine.dispatches_executed();
  util::Stopwatch watch;
  ManagedRun run;
  run.result = engine.call(method, args).as_int();
  run.ms = watch.elapsed_ms();
  run.dispatches_per_insn =
      static_cast<double>(engine.dispatches_executed() - dispatches_before) /
      static_cast<double>(engine.instructions_executed() - insns_before);
  return run;
}

/// Shared shape of the two kernel scenarios: run the managed (VM) and the
/// native implementation over the same file through the same fs, check the
/// results agree, and report throughput for both plus the slowdown factor.
void report_pair(obs::BenchReport& report, const char* name,
                 double bytes_processed, const ManagedRun& managed,
                 double native_ms, long long native_result) {
  const double managed_ms = managed.ms;
  const long long managed_result = managed.result;
  util::check<util::ConfigError>(
      managed_result == native_result,
      std::string(name) + ": managed and native kernels disagree");
  const double managed_mbs = bytes_processed / 1e6 / (managed_ms / 1e3);
  const double native_mbs = bytes_processed / 1e6 / (native_ms / 1e3);
  std::printf(
      "%-6s  managed %8.1f MB/s   native %8.1f MB/s   slowdown x%.1f   "
      "%.3f dispatches/insn   (result %lld)\n",
      name, managed_mbs, native_mbs, native_mbs / managed_mbs,
      managed.dispatches_per_insn, managed_result);
  report.scenario(std::string(name) + "_managed");
  report.metric("mb_per_sec", managed_mbs);
  report.metric("dispatches_per_insn", managed.dispatches_per_insn);
  report.metric("result", static_cast<double>(managed_result));
  report.scenario(std::string(name) + "_native");
  report.metric("mb_per_sec", native_mbs);
  report.metric("managed_over_native", native_mbs / managed_mbs);
}

void bench_bitap(obs::BenchReport& report) {
  util::TempDir dir;
  auto fs = make_fs(dir);
  const std::string pattern = "wickedly";
  constexpr std::size_t kCorpusBytes = 4 << 20;
  constexpr std::int64_t kChunk = 64 * 1024;
  {
    util::Rng rng(11);
    std::string text(kCorpusBytes, ' ');
    for (auto& ch : text) {
      ch = static_cast<char>('a' + rng.uniform_u64(26));
    }
    for (std::size_t at = 4000; at + pattern.size() < text.size();
         at += 65521) {  // prime stride: some plants straddle chunks
      text.replace(at, pattern.size(), pattern);
    }
    write_file(fs, "corpus.txt",
               std::span(reinterpret_cast<const std::byte*>(text.data()),
                         text.size()));
  }

  vm::EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  vm::ExecutionEngine engine(vm::assemble(vm::kernels::kBitapSource), options,
                             &fs);
  const std::vector<vm::Value> args{
      vm::kernels::make_string("corpus.txt"),
      vm::kernels::bitap_masks(pattern), vm::kernels::bitap_accept(pattern),
      vm::Value::from_int(kChunk)};
  engine.call("bitap_file", args);  // warm the pool + the jit
  const ManagedRun managed = run_managed(engine, "bitap_file", args);

  apps::pgrep::Bitap matcher(pattern, 0);
  apps::pgrep::BitapStreamScanner scanner(matcher);
  std::vector<std::byte> chunk(static_cast<std::size_t>(kChunk));
  util::Stopwatch native_watch;
  auto file = fs.open("corpus.txt", io::OpenMode::kRead);
  while (true) {
    const std::size_t got = file.read(chunk);
    if (got == 0) break;
    scanner.feed(std::string_view(
        reinterpret_cast<const char*>(chunk.data()), got));
  }
  file.close();
  const double native_ms = native_watch.elapsed_ms();

  report_pair(report, "bitap", kCorpusBytes, managed, native_ms,
              static_cast<long long>(scanner.matches()));
}

void bench_dmine(obs::BenchReport& report) {
  using apps::dmine::kFixedRecordBytes;
  util::TempDir dir;
  auto fs = make_fs(dir);
  constexpr std::size_t kBaskets = 60000;
  constexpr std::int64_t kChunk = 64 * 1024;  // multiple of 16
  constexpr std::size_t kK = 2;
  std::vector<std::vector<std::uint8_t>> candidates;
  for (std::uint8_t c = 0; c < 12; ++c) {
    candidates.push_back({c, static_cast<std::uint8_t>(c + 5)});
  }
  const auto packed = apps::dmine::pack_candidates(candidates, kK);
  {
    util::Rng rng(23);
    std::vector<std::vector<std::uint8_t>> baskets;
    baskets.reserve(kBaskets);
    for (std::size_t b = 0; b < kBaskets; ++b) {
      std::vector<std::uint8_t> basket;
      const auto n = 3 + rng.uniform_u64(8);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto item = static_cast<std::uint8_t>(rng.uniform_u64(48));
        bool dup = false;
        for (const auto existing : basket) dup = dup || existing == item;
        if (!dup) basket.push_back(item);
      }
      baskets.push_back(std::move(basket));
    }
    write_file(fs, "baskets.dat", apps::dmine::encode_fixed_records(baskets));
  }
  const double file_bytes = kBaskets * kFixedRecordBytes;

  vm::EngineOptions options;
  options.jit.compile_ns_per_byte = 0;
  vm::ExecutionEngine engine(vm::assemble(vm::kernels::kDmineSource), options,
                             &fs);
  const std::vector<vm::Value> args{
      vm::kernels::make_string("baskets.dat"), vm::kernels::make_buffer(packed),
      vm::Value::from_int(static_cast<std::int64_t>(kK)),
      vm::Value::from_int(kChunk)};
  engine.call("dmine_count", args);  // warm
  const ManagedRun managed = run_managed(engine, "dmine_count", args);

  long long native_result = 0;
  std::vector<std::byte> chunk(static_cast<std::size_t>(kChunk));
  util::Stopwatch native_watch;
  auto file = fs.open("baskets.dat", io::OpenMode::kRead);
  while (true) {
    const std::size_t got = file.read(chunk);
    if (got == 0) break;
    native_result += static_cast<long long>(apps::dmine::count_support(
        std::span(chunk.data(), got), packed, kK));
  }
  file.close();
  const double native_ms = native_watch.elapsed_ms();

  report_pair(report, "dmine", file_bytes, managed, native_ms,
              native_result);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string filter = argc > 1 ? argv[1] : "all";
  const auto enabled = [&](const char* name) {
    return filter == "all" || filter == name;
  };
  obs::BenchReport report("micro_vm");
  if (enabled("interp")) {
    std::printf("-- interpreter dispatch throughput --\n");
    bench_interp(report);
    std::printf("\n");
  }
  if (enabled("jit")) {
    std::printf("-- jit first-request delay: eager vs warm-up tier --\n");
    bench_jit(report);
    std::printf("\n");
  }
  if (enabled("fileio")) {
    std::printf("-- managed file_read: boxed array vs byte buffer --\n");
    bench_fileio(report);
    std::printf("\n");
  }
  if (enabled("bitap")) {
    std::printf("-- pgrep bitap kernel: managed vs native --\n");
    bench_bitap(report);
    std::printf("\n");
  }
  if (enabled("dmine")) {
    std::printf("-- dmine candidate counting: managed vs native --\n");
    bench_dmine(report);
  }
  const std::string json_path = report.write_default();
  if (!json_path.empty()) {
    std::printf("\nmachine-readable report: %s\n", json_path.c_str());
  }
  return 0;
}
