// vm_scan: the managed runtime's cost on I/O-bound work, the paper's
// headline axis.  Each round runs the bitap and dmine kernels as VM
// bytecode, which reads through the library's file system, and as their
// native twins, which read the same files with read(2) (native.hpp); the
// results must agree.  The first rounds also repeat Table 6's protocol --
// make_cold() followed by six GETs of the 14,063-byte file -- against a
// server whose handlers run on the VM, for the cold-start layer metrics.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "apps/dmine/candidate_count.hpp"
#include "apps/pgrep/bitap.hpp"
#include "harness.hpp"
#include "io/file_store.hpp"
#include "native.hpp"
#include "net/client.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"
#include "vm/kernels.hpp"
#include "vm/runtime.hpp"

namespace clio::bench {
namespace {

// Sized so one managed call of each kernel takes ~0.1 s on a 2020s core.
constexpr std::size_t kCorpusBytes = 512 << 10;
constexpr std::size_t kBaskets = 6000;
constexpr std::int64_t kChunk = 64 * 1024;  // a multiple of the 16-B record
constexpr std::size_t kDmineK = 2;
// A native call takes about a millisecond, so each round times it this
// many times and keeps the median.
constexpr std::size_t kNativeReps = 5;
constexpr std::size_t kTable6Reads = 6;
constexpr std::size_t kTable6Bytes = 14063;
// Every GET through the VM handlers leaks its boxed copy of the file, about
// 560 KB here (README.md, "Found by this benchmark").  So a run makes only
// this many Table 6 rounds, about 70 MB.
constexpr std::size_t kTable6Rounds = 20;
// The modeled handler compile cost the Table 5/6 benches use.
constexpr std::int64_t kHandlerCompileNsPerByte = 25000;
constexpr std::string_view kPattern = "wickedly";

struct VmState {
  VmState() = default;
  VmState(const VmState&) = delete;
  VmState& operator=(const VmState&) = delete;
  ~VmState() {
    if (server != nullptr) stop_when_idle(*server);
  }

  std::filesystem::path dir;  ///< the files, for the native twins
  std::string page;           ///< the Table 6 file
  std::vector<std::byte> candidates;
  std::unique_ptr<io::ManagedFileSystem> fs;
  // Engines and server hold `fs`; declared after it so they go first.
  std::unique_ptr<vm::ExecutionEngine> bitap;
  std::unique_ptr<vm::ExecutionEngine> dmine;
  std::unique_ptr<net::MiniWebServer> server;
  std::vector<vm::Value> bitap_args;
  std::vector<vm::Value> dmine_args;
};

net::ServerOptions server_options() {
  net::ServerOptions options;
  options.vm_dispatch = true;
  options.vm_options.jit.compile_ns_per_byte = kHandlerCompileNsPerByte;
  return options;
}

void write_bytes(const std::filesystem::path& path, std::string_view bytes) {
  util::write_file(path, std::as_bytes(std::span(bytes.data(), bytes.size())));
}

std::unique_ptr<VmState> make_state(std::uint64_t seed,
                                    const std::filesystem::path& dir) {
  auto st = std::make_unique<VmState>();
  st->dir = dir;
  util::Rng rng(seed);
  {
    std::string text(kCorpusBytes, ' ');
    for (auto& ch : text) ch = static_cast<char>('a' + rng.uniform_u64(26));
    // Prime stride: some plants straddle a read chunk.
    for (std::size_t at = 1000 + rng.uniform_u64(4000);
         at + kPattern.size() < text.size(); at += 65521) {
      text.replace(at, kPattern.size(), kPattern);
    }
    write_bytes(dir / "corpus.txt", text);
  }
  {
    std::vector<std::vector<std::uint8_t>> baskets(kBaskets);
    for (auto& basket : baskets) {
      const auto n = 3 + rng.uniform_u64(8);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto item = static_cast<std::uint8_t>(rng.uniform_u64(48));
        if (std::find(basket.begin(), basket.end(), item) == basket.end()) {
          basket.push_back(item);
        }
      }
      std::sort(basket.begin(), basket.end());
    }
    util::write_file(dir / "baskets.dat",
                     apps::dmine::encode_fixed_records(baskets));
  }
  std::vector<std::vector<std::uint8_t>> candidates;
  for (std::uint8_t c = 0; c < 12; ++c) {
    candidates.push_back({c, static_cast<std::uint8_t>(c + 5)});
  }
  st->candidates = apps::dmine::pack_candidates(candidates, kDmineK);
  st->page.resize(kTable6Bytes);
  for (auto& ch : st->page) ch = static_cast<char>(rng.next_u64());
  write_bytes(dir / "page.bin", st->page);

  st->fs = std::make_unique<io::ManagedFileSystem>(
      std::make_unique<io::RealFileStore>(dir, /*idle_fd_cache=*/128),
      io::ManagedFsOptions{});
  st->bitap = std::make_unique<vm::ExecutionEngine>(
      vm::assemble(vm::kernels::kBitapSource), vm::EngineOptions{},
      st->fs.get());
  st->dmine = std::make_unique<vm::ExecutionEngine>(
      vm::assemble(vm::kernels::kDmineSource), vm::EngineOptions{},
      st->fs.get());
  st->bitap_args = {vm::kernels::make_string("corpus.txt"),
                    vm::kernels::bitap_masks(kPattern),
                    vm::kernels::bitap_accept(kPattern),
                    vm::Value::from_int(kChunk)};
  st->dmine_args = {vm::kernels::make_string("baskets.dat"),
                    vm::kernels::make_buffer(st->candidates),
                    vm::Value::from_int(static_cast<std::int64_t>(kDmineK)),
                    vm::Value::from_int(kChunk)};
  st->server = std::make_unique<net::MiniWebServer>(*st->fs, server_options());
  st->server->start();
  return st;
}

struct KernelRun {
  long long result = 0;
  double ms = 0.0;
  double io_ms = 0.0;  ///< time in file operations inside the call
  std::uint64_t insns = 0;
};

KernelRun run_managed(vm::ExecutionEngine& engine, const char* method,
                      const std::vector<vm::Value>& args,
                      io::ManagedFileSystem& fs, Tracer& tracer) {
  KernelRun run;
  const double io_before = file_op_ms(fs.stats());
  const std::uint64_t insns_before = engine.instructions_executed();
  const std::uint16_t index = engine.method_index(method);
  util::Stopwatch watch;
  {
    Tracer::Span span(tracer, method, Layer::kVm);
    run.result = engine.call_index(index, args).as_int();
    run.io_ms = file_op_ms(fs.stats()) - io_before;
    span.attribute(Layer::kIo,
                   static_cast<std::uint64_t>(std::llround(run.io_ms * 1e6)));
  }
  run.ms = watch.elapsed_ms();
  run.insns = engine.instructions_executed() - insns_before;
  return run;
}

/// One native twin call: reads `path` with read(2) in kChunk pieces and
/// hands each to `consume`.
template <typename Consume>
KernelRun run_native(const std::filesystem::path& path, const char* span_name,
                     Tracer& tracer, std::vector<std::byte>& buffer,
                     Consume consume) {
  KernelRun run;
  util::Stopwatch watch;
  {
    Tracer::Span span(tracer, span_name, Layer::kApps);
    run.result = native::scan_file(path, buffer, consume);
  }
  run.ms = watch.elapsed_ms();
  return run;
}

/// One round: each kernel once managed and kNativeReps times native.
struct Round {
  double bitap_ms = 0.0;         ///< managed call
  double dmine_ms = 0.0;         ///< managed call
  double bitap_native_ms = 0.0;  ///< median native call
  double dmine_native_ms = 0.0;  ///< median native call
  double managed_io_ms = 0.0;    ///< file operations inside managed calls
  std::uint64_t insns = 0;
};

/// Runs a round, each kernel's native calls first when `native_first`, and
/// checks that every native result equals the managed one.
Round kernel_round(VmState& st, const RunConfig& config, Tracer& tracer,
                   Oracle& oracle, bool native_first) {
  io::ManagedFileSystem& fs = *st.fs;
  std::vector<std::byte> buffer(static_cast<std::size_t>(kChunk));
  const apps::pgrep::Bitap matcher{std::string(kPattern), 0};
  const auto bitap_native = [&] {
    apps::pgrep::BitapStreamScanner scanner(matcher);
    return run_native(st.dir / "corpus.txt", "apps.bitap", tracer, buffer,
                      [&](std::span<const std::byte> bytes) {
                        return static_cast<long long>(
                            scanner.feed(std::string_view(
                                reinterpret_cast<const char*>(bytes.data()),
                                bytes.size())));
                      });
  };
  const auto dmine_native = [&] {
    return run_native(st.dir / "baskets.dat", "apps.dmine", tracer, buffer,
                      [&](std::span<const std::byte> bytes) {
                        return static_cast<long long>(
                            apps::dmine::count_support(bytes, st.candidates,
                                                       kDmineK));
                      });
  };
  // kNativeReps native calls: the median time and every result.
  struct NativeRuns {
    double ms = 0.0;
    std::vector<long long> results;
  };
  const auto native_runs = [&](auto native) {
    NativeRuns n;
    std::vector<double> ms;
    for (std::size_t i = 0; i < kNativeReps; ++i) {
      const KernelRun run = native();
      ms.push_back(run.ms);
      n.results.push_back(run.result);
    }
    n.ms = median(ms);
    return n;
  };
  Round round;
  const auto managed = [&](vm::ExecutionEngine& engine, const char* method,
                           const std::vector<vm::Value>& args) {
    const KernelRun run = run_managed(engine, method, args, fs, tracer);
    round.managed_io_ms += run.io_ms;
    round.insns += run.insns;
    return run;
  };

  KernelRun bitap, dmine;
  NativeRuns bitap_n, dmine_n;
  if (native_first) {
    bitap_n = native_runs(bitap_native);
    bitap = managed(*st.bitap, "bitap_file", st.bitap_args);
    dmine_n = native_runs(dmine_native);
    dmine = managed(*st.dmine, "dmine_count", st.dmine_args);
  } else {
    bitap = managed(*st.bitap, "bitap_file", st.bitap_args);
    bitap_n = native_runs(bitap_native);
    dmine = managed(*st.dmine, "dmine_count", st.dmine_args);
    dmine_n = native_runs(dmine_native);
  }
  if (config.inject == Inject::kKernelResult) ++dmine_n.results[0];
  const auto check = [&](const char* kernel, long long result,
                         const NativeRuns& n) {
    for (const long long native : n.results) {
      if (native != result) {
        oracle.fail(std::string(kernel) + ": managed " +
                    std::to_string(result) + " != native " +
                    std::to_string(native));
      }
    }
  };
  check("bitap", bitap.result, bitap_n);
  check("dmine", dmine.result, dmine_n);
  round.bitap_ms = bitap.ms;
  round.dmine_ms = dmine.ms;
  round.bitap_native_ms = bitap_n.ms;
  round.dmine_native_ms = dmine_n.ms;
  return round;
}

}  // namespace

void run_vm_scan(const RunConfig& config, Tracer& tracer, RunResult& r) {
  auto st = timed_setup<VmState>(
      config.workdir, r, [&](const std::filesystem::path& dir) {
        return make_state(config.seed, dir);
      });
  net::MiniWebServer& server = *st->server;
  io::ManagedFileSystem& fs = *st->fs;
  net::HttpClient client(server.port(), /*keep_alive=*/true);

  std::uint64_t get_ok = 0;
  std::uint64_t get_bytes = 0;
  // One Table 6 round: a cold server, then kTable6Reads reads of the same
  // file.  Latencies go to *first / *warm unless those are null (warm-up).
  const auto table6_round = [&](std::vector<double>* first,
                                std::vector<double>* warm) {
    server.make_cold();
    for (std::size_t i = 0; i < kTable6Reads; ++i) {
      ++r.attempted;
      try {
        util::Stopwatch watch;
        net::ClientResult res;
        {
          Tracer::Span span(tracer, "http.get", Layer::kNet);
          res = client.get("/page.bin");
        }
        const double ms = watch.elapsed_ms();
        if (!r.oracle.check(res.status == 200, "GET did not answer 200")) {
          continue;
        }
        ++get_ok;
        get_bytes += res.body.size();
        if (!r.oracle.check(res.body == st->page,
                            "GET body differs from /page.bin")) {
          continue;
        }
        if (first != nullptr) (i == 0 ? first : warm)->push_back(ms);
      } catch (const std::exception& e) {
        r.oracle.fail(std::string("request failed: ") + e.what());
      }
    }
  };

  // Two managed and 2 * kNativeReps native kernel calls per round.
  constexpr std::uint64_t kCallsPerRound = 2 + 2 * kNativeReps;
  const util::Stopwatch warmup;
  table6_round(nullptr, nullptr);
  do {
    r.attempted += kCallsPerRound;
    (void)kernel_round(*st, config, tracer, r.oracle, false);
  } while (warmup.elapsed_sec() < kWarmupSeconds);

  fs.stats().reset();
  server.metrics().reset();
  server.clear_samples();
  const io::PoolStats pool_before = fs.pool().stats();
  const double corpus_mb = kCorpusBytes / 1e6;
  const double baskets_mb = kBaskets * apps::dmine::kFixedRecordBytes / 1e6;
  // One value per round.
  std::vector<double> bitap_x, dmine_x, dmine_ms, dmine_native_ms;
  std::vector<double> bitap_mb, dmine_mb, bitap_native, dmine_native;
  std::vector<double> minsns, io_frac;
  std::vector<double> all_first, all_warm;
  double insns_per_byte = 0.0;
  std::uint64_t payload_bytes = 0;
  std::size_t rounds = 0;
  const util::Stopwatch measured;
  do {
    r.attempted += kCallsPerRound;
    const Round k =
        kernel_round(*st, config, tracer, r.oracle, /*native_first=*/rounds % 2 == 1);
    ++rounds;
    if (rounds <= kTable6Rounds) table6_round(&all_first, &all_warm);
    bitap_x.push_back(k.bitap_ms / k.bitap_native_ms);
    dmine_x.push_back(k.dmine_ms / k.dmine_native_ms);
    dmine_ms.push_back(k.dmine_ms);
    dmine_native_ms.push_back(k.dmine_native_ms);
    bitap_mb.push_back(corpus_mb / (k.bitap_ms / 1e3));
    dmine_mb.push_back(baskets_mb / (k.dmine_ms / 1e3));
    bitap_native.push_back(corpus_mb / (k.bitap_native_ms / 1e3));
    dmine_native.push_back(baskets_mb / (k.dmine_native_ms / 1e3));
    minsns.push_back(static_cast<double>(k.insns) /
                     (k.bitap_ms + k.dmine_ms) / 1e3);
    insns_per_byte = static_cast<double>(k.insns) /
                     ((corpus_mb + baskets_mb) * 1e6);
    io_frac.push_back(k.managed_io_ms / (k.bitap_ms + k.dmine_ms));
    payload_bytes += kCorpusBytes + kBaskets * apps::dmine::kFixedRecordBytes;
  } while (measured.elapsed_sec() < config.seconds);
  std::vector<double> all_requests = all_first;
  all_requests.insert(all_requests.end(), all_warm.begin(), all_warm.end());
  payload_bytes += all_requests.size() * kTable6Bytes;

  // The gated ratios follow dmine alone.  Native bitap ran 2x slower when
  // the host was busy, against 1.45x for managed bitap and for both sides
  // of dmine, so bitap's ratio moved with the host's state (141-201 over
  // 10 runs) while dmine's held at 146-156.  cost_x pairs each managed
  // call with the native calls beside it; p50_x divides the run's median
  // managed call by its median native call.
  report_ratios(r, dmine_x, {median(dmine_ms) / median(dmine_native_ms)});
  r.metrics["bitap_x"] = median(bitap_x);
  r.metrics["dmine_x"] = median(dmine_x);
  r.metrics["managed_mb_s"] = std::sqrt(median(bitap_mb) * median(dmine_mb));
  r.metrics["native_mb_s"] =
      std::sqrt(median(bitap_native) * median(dmine_native));
  r.metrics["vm.bitap_mb_s"] = median(bitap_mb);
  r.metrics["vm.dmine_mb_s"] = median(dmine_mb);
  r.metrics["vm.minsns_per_s"] = median(minsns);
  r.metrics["vm.insns_per_byte"] = insns_per_byte;
  r.metrics["vm.io_frac"] = median(io_frac);
  r.metrics["vm.first_request_ms"] = median(all_first);
  r.metrics["vm.warm_request_ms"] = median(all_warm);
  r.metrics["apps.bitap_native_mb_s"] = median(bitap_native);
  r.metrics["apps.dmine_native_mb_s"] = median(dmine_native);
  util::LatencyHistogram first_hist, warm_hist;
  add_samples_ms(first_hist, all_first);
  add_samples_ms(warm_hist, all_warm);
  r.distributions.emplace_back("first_request_ns", first_hist.snapshot());
  r.distributions.emplace_back("warm_request_ns", warm_hist.snapshot());

  // The server logs one sample per GET in request order (one client), so
  // every kTable6Reads-th sample is the first read after make_cold().
  const auto samples = server.samples();
  if (r.oracle.check(samples.size() == all_requests.size(),
                     "server logged " + std::to_string(samples.size()) +
                         " samples for " +
                         std::to_string(all_requests.size()) + " GETs")) {
    std::vector<double> first_file, warm_file;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      (i % kTable6Reads == 0 ? first_file : warm_file)
          .push_back(samples[i].file_ms);
    }
    r.metrics["vm.first_file_ms"] = median(first_file);
    r.metrics["vm.warm_file_ms"] = median(warm_file);
  }

  client.disconnect();
  check_served_bytes(r.oracle, server, get_bytes, 0);
  double sum_ms = 0.0;
  for (const double v : all_requests) sum_ms += v;
  report_net_layer(r, server, get_ok,
                   ratio(sum_ms, static_cast<double>(all_requests.size())));
  report_io_layer(r, pool_delta(fs.pool().stats(), pool_before), fs.stats(),
                  fs.pool().page_size(), static_cast<double>(payload_bytes));
  stop_when_idle(server);
  const vm::JitStats& jit = server.engine()->jit_stats();
  r.metrics["vm.jit_compilations"] = static_cast<double>(jit.compilations);
  r.metrics["vm.compile_ms"] =
      ratio(jit.total_compile_ms, static_cast<double>(jit.compilations));
  check_pool(r.oracle, fs.pool());

  r.server_options = server_options();
  r.fs_options = io::ManagedFsOptions{};
  r.jit_options = vm::JitOptions{};
  r.params.insert(r.params.end(),
                  {{"rounds", static_cast<double>(rounds)},
                   {"native_reps", static_cast<double>(kNativeReps)},
                   {"corpus_bytes", static_cast<double>(kCorpusBytes)},
                   {"baskets", static_cast<double>(kBaskets)},
                   {"chunk_bytes", static_cast<double>(kChunk)},
                   {"table6_rounds", static_cast<double>(kTable6Rounds)},
                   {"table6_reads", static_cast<double>(kTable6Reads)},
                   {"table6_bytes", static_cast<double>(kTable6Bytes)}});
}

}  // namespace clio::bench
