// clio_bench — the end-to-end benchmark program: one subcommand per task,
// one workload per fresh process.
//
//   clio_bench list
//   clio_bench run <workload> [--seed N] [--seconds S] [--trace]
//                             [--out DIR] [--workdir DIR]
//   clio_bench selftest [--workdir DIR]
//
// `run` confines itself to one CPU, builds the workload's inputs from the
// seed (several times, timed as setup_s), warms up for kWarmupSeconds,
// measures for --seconds in alternating turns of the system and its native
// reference, checks every output, and then writes BENCH_clio_<workload>.json
// (schema 1 plus an env block) into --out.  With
// --trace it also records bench-side spans and writes
// TRACE_clio_<workload>.json.  The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"} carrying the end-to-end
// metrics, or with --trace the per-layer metrics.  Exit status: 0 when
// every check passed, 1 when a check failed, 2 on a usage or setup error.
#include <sys/utsname.h>
#include <sys/vfs.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "io/uring_store.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace clio::bench {
namespace {

struct Workload {
  const char* name;
  const char* why;
  void (*run)(const RunConfig&, Tracer&, RunResult&);
};

// Keep names and reasons in sync with BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"web_mixed",
     "Zipf GETs and 10% 4 KiB POSTs against the epoll server and a native "
     "server: the net layer serves, and file creation and write-back slow it",
     run_web},
    {"vm_scan",
     "bitap and dmine as VM bytecode beside their native twins, plus Table 6 "
     "cold-start reads through VM handlers: managed execution dominates",
     run_vm_scan},
    {"replay_panels",
     "cold replays of the LU panel schedule, and natively on descriptors: "
     "bandwidth-bound pool traffic with prefetch, eviction and write-back",
     run_replay},
    {"replay_columns",
     "cold replays of captured Cholesky, Titan and Dmine traces, and natively: "
     "many small seek+read records, so per-operation cost dominates",
     run_replay},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string kernel_release() {
  utsname u{};
  if (::uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release + " " + u.machine;
}

std::string fs_type(const std::filesystem::path& dir) {
  struct statfs s{};
  if (::statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

void write_env(obs::JsonWriter& w, const RunConfig& config, bool trace,
               const RunResult& r) {
  const auto u64 = [](auto v) { return static_cast<std::uint64_t>(v); };
  w.key("env");
  w.begin_object();
  w.kv("nproc", u64(std::thread::hardware_concurrency()));
  w.kv("pinned_cpu", config.cpu);
  w.kv("kernel", kernel_release());
  w.kv("compiler", __VERSION__);
  w.kv("build_type", CLIO_BENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
  w.kv("optimized", true);
#else
  w.kv("optimized", false);
#endif
#ifdef NDEBUG
  w.kv("ndebug", true);
#else
  w.kv("ndebug", false);
#endif
  w.kv("uring_supported", io::UringStore::supported());
  w.kv("workdir_fs", fs_type(config.workdir.parent_path()));
  w.kv("seed", config.seed);
  w.kv("seconds", config.seconds);
  w.kv("warmup_s", kWarmupSeconds);
  w.kv("setup_window_s", kSetupWindowSeconds);
  w.kv("trace", trace);
  w.key("workload");
  w.begin_object();
  for (const auto& [name, value] : r.params) w.kv(name, value);
  w.end_object();
  if (r.server_options) {
    const net::ServerOptions& o = *r.server_options;
    w.key("server");
    w.begin_object();
    w.kv("worker_threads", u64(o.worker_threads));
    w.kv("max_pending", u64(o.max_pending));
    w.kv("keep_alive", o.keep_alive);
    w.kv("vm_dispatch", o.vm_dispatch);
    w.kv("vm_compile_ns_per_byte", o.vm_options.jit.compile_ns_per_byte);
    w.kv("vm_compile_threshold", o.vm_options.jit.compile_threshold);
    w.kv("zero_copy", o.zero_copy);
    w.kv("sendfile_min_bytes", u64(o.sendfile_min_bytes));
    w.kv("hot_cache_entries", u64(o.hot_cache_entries));
    w.kv("request_deadline_ms", u64(o.request_deadline_ms));
    w.kv("idle_timeout_ms", o.idle_timeout_ms);
    w.kv("max_connections", u64(o.max_connections));
    w.end_object();
  }
  if (r.fs_options) {
    const io::ManagedFsOptions& o = *r.fs_options;
    w.key("fs");
    w.begin_object();
    w.kv("page_size", u64(o.page_size));
    w.kv("pool_pages", u64(o.pool_pages));
    w.kv("pool_shards", u64(o.pool_shards));
    w.kv("prefetch_on_seek", o.prefetch_on_seek);
    w.kv("async_prefetch", o.async_prefetch);
    w.kv("writeback_on_close", o.writeback_on_close);
    w.end_object();
  }
  if (r.jit_options) {
    const vm::JitOptions& o = *r.jit_options;
    w.key("jit");
    w.begin_object();
    w.kv("compile_ns_per_byte", o.compile_ns_per_byte);
    w.kv("cache_enabled", o.cache_enabled);
    w.kv("compile_threshold", o.compile_threshold);
    w.end_object();
  }
  w.end_object();
}

/// BENCH_clio_<workload>.json: the schema-1 report shape (one scenario)
/// plus the env block and the oracle outcome.
void write_report(const std::filesystem::path& path, const RunConfig& config,
                  bool trace, const RunResult& r) {
  std::ofstream out(path);
  util::check<util::IoError>(out.good(), "cannot open " + path.string());
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("bench", "clio_" + config.workload);
  w.kv("schema", 1);
  write_env(w, config, trace, r);
  w.kv("correct", r.oracle.failures() == 0);
  w.key("failures");
  w.begin_array();
  for (const auto& m : r.oracle.messages()) w.value(m);
  w.end_array();
  w.key("scenarios");
  w.begin_array();
  w.begin_object();
  w.kv("name", config.workload);
  w.key("metrics");
  w.begin_object();
  w.kv("attempted", static_cast<double>(r.attempted));
  w.kv("failed", static_cast<double>(r.oracle.failures()));
  w.kv("error_rate", ratio(static_cast<double>(r.oracle.failures()),
                           static_cast<double>(r.attempted)));
  for (const auto& [name, value] : r.metrics) w.kv(name, value);
  w.end_object();
  w.key("values");
  w.begin_object();
  for (const auto& [name, values] : r.values) {
    w.key(name);
    w.begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.key("distributions");
  w.begin_object();
  for (const auto& [name, snap] : r.distributions) {
    w.key(name);
    obs::write_histogram_json(w, snap);
  }
  w.end_object();
  w.end_object();
  w.end_array();
  w.end_object();
  out << '\n';
  util::check<util::IoError>(out.good(), "write failed: " + path.string());
}

/// The result line: the end-to-end metrics, or with --trace the per-layer
/// ones.  A per-layer metric the workload did not exercise reads 0.
void print_result_line(const RunResult& r, bool trace) {
  obs::JsonWriter w(std::cout, /*pretty=*/false);
  w.begin_object();
  w.kv("correct", r.oracle.failures() == 0);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.oracle.failures());
  w.key("metrics");
  w.begin_object();
  const auto emit = [&](const MetricSpec& spec, double value) {
    w.key(spec.name);
    w.begin_object();
    w.kv("value", value);
    w.kv("unit", spec.unit);
    w.end_object();
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = r.metrics.find(spec.name);
      emit(spec, it != r.metrics.end() ? it->second : 0.0);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec, r.metrics.at(spec.name));
    }
  }
  w.end_object();
  w.end_object();
  std::cout << std::endl;
}

int usage() {
  std::cerr << "usage: clio_bench list\n"
               "       clio_bench run <workload> [--seed N] [--seconds S] "
               "[--trace] [--out DIR] [--workdir DIR]\n"
               "       clio_bench selftest [--workdir DIR]\n";
  return 2;
}

int cmd_list() {
  for (const Workload& w : kWorkloads) {
    std::cout << w.name << "\t" << w.why << "\n";
  }
  return 0;
}

int cmd_run(const RunConfig& base, bool trace,
            const std::filesystem::path& out_dir) {
  const Workload* workload = find_workload(base.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << base.workload << "\n";
    return 2;
  }
  RunConfig config = base;
  config.workdir = base.workdir / base.workload;
  config.cpu = pin_to_one_cpu();
  Tracer tracer(trace);
  RunResult r;
  workload->run(config, tracer, r);
  std::filesystem::remove_all(config.workdir);
  sync_filesystem(base.workdir);  // leave no deletions to the next run

  std::filesystem::create_directories(out_dir);
  if (trace) {
    const double root = static_cast<double>(tracer.root_ns());
    const auto self = tracer.self_ns();
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      r.metrics[std::string(layer_name(static_cast<Layer>(i))) +
                ".self_frac"] = ratio(static_cast<double>(self[i]), root);
    }
    tracer.write_chrome_trace(out_dir / ("TRACE_clio_" + config.workload +
                                         ".json"));
  }
  write_report(out_dir / ("BENCH_clio_" + config.workload + ".json"), config,
               trace, r);

  std::cout << "clio_bench " << config.workload << "  seed " << config.seed
            << "  " << config.seconds << " s" << (trace ? "  traced" : "")
            << "\n";
  for (const auto& [name, value] : r.metrics) {
    std::cout << "  " << name << " " << value << "\n";
  }
  for (const auto& m : r.oracle.messages()) {
    std::cerr << "check failed: " << m << "\n";
  }
  print_result_line(r, trace);
  return r.oracle.failures() == 0 ? 0 : 1;
}

/// Every failure message must start with `prefix`, and there must be one.
bool caught_only(const RunResult& r, std::string_view prefix) {
  const auto messages = r.oracle.messages();
  if (messages.empty()) return false;
  for (const auto& m : messages) {
    if (m.rfind(prefix, 0) != 0) {
      std::cerr << "selftest: unexpected failure: " << m << "\n";
      return false;
    }
  }
  return true;
}

int cmd_selftest(const std::filesystem::path& workdir) {
  Tracer tracer(false);
  RunConfig config;
  config.cpu = pin_to_one_cpu();
  config.seconds = 0.5;
  config.workdir = workdir / "selftest";

  config.workload = "web_mixed";
  config.inject = Inject::kExpectedByte;
  RunResult web;
  run_web(config, tracer, web);
  const bool byte_caught = caught_only(web, "GET body differs");
  std::cout << "selftest: flipped expected byte "
            << (byte_caught ? "caught" : "MISSED") << "\n";

  config.workload = "vm_scan";
  config.inject = Inject::kKernelResult;
  RunResult vm;
  run_vm_scan(config, tracer, vm);
  const bool kernel_caught = caught_only(vm, "dmine: managed");
  std::cout << "selftest: flipped kernel result "
            << (kernel_caught ? "caught" : "MISSED") << "\n";

  std::filesystem::remove_all(config.workdir);
  return byte_caught && kernel_caught ? 0 : 1;
}

}  // namespace
}  // namespace clio::bench

int main(int argc, char** argv) {
  using namespace clio::bench;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  RunConfig config;
  config.workdir = ".bench_build/work";
  bool trace = false;
  std::filesystem::path out_dir = ".";
  int i = 2;
  if (command == "run") {
    if (argc < 3) return usage();
    config.workload = argv[i++];
  }
  try {
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--trace") {
        trace = true;
      } else if (arg == "--seed" && has_value) {
        config.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        config.seconds = std::stod(argv[++i]);
      } else if (arg == "--out" && has_value) {
        out_dir = argv[++i];
      } else if (arg == "--workdir" && has_value) {
        config.workdir = argv[++i];
      } else {
        return usage();
      }
    }
    if (!(config.seconds > 0.0)) return usage();
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(config, trace, out_dir);
    if (command == "selftest") return cmd_selftest(config.workdir);
  } catch (const std::exception& e) {
    std::cerr << "clio_bench: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
