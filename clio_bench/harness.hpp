#pragma once

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "io/io_stats.hpp"
#include "io/managed_file.hpp"
#include "net/server.hpp"
#include "tracer.hpp"
#include "util/histogram.hpp"
#include "util/stopwatch.hpp"
#include "vm/jit.hpp"

namespace clio::bench {

/// Run rules shared by every workload.
inline constexpr double kWarmupSeconds = 1.0;  ///< unmeasured warm-up
// setup_s is the median of builds spread evenly over kSetupWindowSeconds:
// kMaxSetupReps of them, or as many as fit but at least kMinSetupReps.  The
// host's slow phases last from milliseconds to minutes, and builds packed
// into a fraction of a second all landed in one phase (README.md).
inline constexpr double kSetupWindowSeconds = 4.0;
inline constexpr std::size_t kMinSetupReps = 3;
inline constexpr std::size_t kMaxSetupReps = 25;
inline constexpr std::uint64_t kDefaultSeed = 2005;

/// Deliberate oracle faults for `clio_bench selftest`: each must make the
/// run report failures.
enum class Inject { kNone, kExpectedByte, kKernelResult };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;  ///< measured time
  std::filesystem::path workdir;  ///< this workload's scratch directory
  Inject inject = Inject::kNone;
  int cpu = -1;  ///< the one CPU the run is confined to, if any
};

/// Confines the calling thread, and every thread it starts afterwards, to
/// one CPU: the highest-numbered one it may run on.  Returns that CPU, or
/// -1 if the affinity could not be set.  On a shared VM, a thread that
/// wakes a thread parked on another, idle vCPU waits tens of microseconds
/// for the host to run that vCPU, depending on the host's load and on where
/// the scheduler put the threads; on one CPU every hand-off is a context
/// switch (README.md, "Run rules").
inline int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpu = i;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them.  cost_x and
/// p50_x compare the system with the workload's native reference
/// (native.hpp; README.md says what an operation is on each workload).
/// Keep in sync with BENCHMARK.json; run.py refuses a result whose names
/// differ.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"cost_x", "x"},  ///< system time over native time for the same work
    {"p50_x", "x"},   ///< system median op latency over native's
};

/// Per-layer metrics, reported by every traced run; a layer a workload
/// does not exercise reads 0.  The *_self_frac entries need spans and so
/// exist only in traced runs.
inline constexpr MetricSpec kPerLayer[] = {
    {"net.get_p50_ms", "ms"},
    {"net.get_p99_ms", "ms"},
    {"net.post_p50_ms", "ms"},
    {"net.post_p99_ms", "ms"},
    {"net.queue_wait_p50_us", "us"},
    {"net.queue_wait_p99_us", "us"},
    {"net.parse_p50_us", "us"},
    {"net.handler_p50_us", "us"},
    {"net.handler_p99_us", "us"},
    {"net.storage_op_p50_us", "us"},
    {"net.storage_op_p99_us", "us"},
    {"net.send_p50_us", "us"},
    {"net.send_p99_us", "us"},
    {"net.unattributed_us", "us"},
    {"net.gather_frac", "ratio"},
    {"net.cache_frac", "ratio"},
    {"net.buffered_frac", "ratio"},
    {"io.pool_hit_ratio", "ratio"},
    {"io.pool_misses", "count"},
    {"io.pool_evictions", "count"},
    {"io.pool_writebacks", "count"},
    {"io.prefetch_pages", "count"},
    {"io.readv_pages_per_call", "pages"},
    {"io.readv_mean_us", "us"},
    {"io.writev_pages_per_call", "pages"},
    {"io.writev_mean_us", "us"},
    {"io.load_amplification", "ratio"},
    {"io.open_mean_us", "us"},
    {"io.close_mean_us", "us"},
    {"io.read_mean_us", "us"},
    {"io.write_mean_us", "us"},
    {"io.seek_mean_us", "us"},
    {"trace.records", "count"},
    {"trace.bytes_read", "bytes"},
    {"trace.bytes_written", "bytes"},
    {"trace.read_p50_us", "us"},
    {"trace.read_p99_us", "us"},
    {"trace.seek_p50_us", "us"},
    {"trace.write_p99_us", "us"},
    {"trace.validate_frac", "ratio"},
    {"vm.minsns_per_s", "Minsns/s"},
    {"vm.insns_per_byte", "insns/B"},
    {"vm.bitap_mb_s", "MB/s"},
    {"vm.dmine_mb_s", "MB/s"},
    {"vm.io_frac", "ratio"},
    {"vm.compile_ms", "ms"},
    {"vm.jit_compilations", "count"},
    {"vm.first_file_ms", "ms"},
    {"vm.warm_file_ms", "ms"},
    {"vm.first_request_ms", "ms"},
    {"vm.warm_request_ms", "ms"},
    {"apps.bitap_native_mb_s", "MB/s"},
    {"apps.dmine_native_mb_s", "MB/s"},
    {"net.self_frac", "ratio"},
    {"vm.self_frac", "ratio"},
    {"apps.self_frac", "ratio"},
    {"io.self_frac", "ratio"},
    {"trace.self_frac", "ratio"},
};

/// Thread-safe record of oracle failures: a count plus the first few
/// messages, which go into the report.
class Oracle {
 public:
  static constexpr std::size_t kMaxMessages = 8;

  void fail(std::string message) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++failures_;
    if (messages_.size() < kMaxMessages) {
      messages_.push_back(std::move(message));
    }
  }
  /// Records a failure unless `ok`; returns `ok`.
  bool check(bool ok, std::string_view what) {
    if (!ok) fail(std::string(what));
    return ok;
  }
  [[nodiscard]] std::uint64_t failures() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_;
  }
  [[nodiscard]] std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return messages_;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// What a workload hands back to `clio_bench run`.
struct RunResult {
  std::uint64_t attempted = 0;  ///< ops issued, warm-up included
  Oracle oracle;
  std::map<std::string, double> metrics;  ///< end-to-end and per-layer
  std::vector<std::pair<std::string, util::LatencyHistogram::Snapshot>>
      distributions;
  /// The values each end-to-end metric summarizes: one per pair of turns,
  /// or per setup build.
  std::vector<std::pair<std::string, std::vector<double>>> values;
  /// Workload parameters and the active knobs, for the report's env block.
  std::vector<std::pair<std::string, double>> params;
  std::optional<net::ServerOptions> server_options;
  std::optional<io::ManagedFsOptions> fs_options;
  std::optional<vm::JitOptions> jit_options;
};

// ------------------------------------------------------------ statistics --

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact quantile with linear interpolation between order statistics.
/// Reorders `v`.
[[nodiscard]] inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double lo_value = v[lo];
  if (lo + 1 >= v.size()) return lo_value;
  const double hi_value =
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                        v.end());
  return lo_value + (pos - static_cast<double>(lo)) * (hi_value - lo_value);
}

/// Reports cost_x and p50_x as the medians of their values, one for each
/// pair of system and native turns (or, for p50_x on vm_scan, one per run).
inline void report_ratios(RunResult& r, const std::vector<double>& cost,
                          const std::vector<double>& p50) {
  r.metrics["cost_x"] = median(cost);
  r.metrics["p50_x"] = median(p50);
  r.values.insert(r.values.end(), {{"cost_x", cost}, {"p50_x", p50}});
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Samples (ms) into a log2 histogram of nanoseconds, for the report's
/// full distributions.
inline void add_samples_ms(util::LatencyHistogram& h,
                           const std::vector<double>& ms) {
  for (const double v : ms) {
    h.push(static_cast<std::uint64_t>(std::llround(v * 1e6)));
  }
}

// ------------------------------------------------------------- layers ----

/// Summed time of the stream-level file operations (open, close, read,
/// write, seek) recorded by IoStats, in ms.  The vectored backing calls
/// are excluded: they run nested inside reads and flushes.
[[nodiscard]] inline double file_op_ms(const io::IoStats& stats) {
  double total = 0.0;
  for (const io::IoOp op : {io::IoOp::kOpen, io::IoOp::kClose, io::IoOp::kRead,
                            io::IoOp::kWrite, io::IoOp::kSeek}) {
    const io::OpSnapshot s = stats.op_snapshot(op);
    total += static_cast<double>(s.count) * s.mean_ms;
  }
  return total;
}

/// Buffer-pool counters accumulated since `before`.
[[nodiscard]] inline io::PoolStats pool_delta(const io::PoolStats& after,
                                              const io::PoolStats& before) {
  io::PoolStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.writebacks = after.writebacks - before.writebacks;
  d.prefetches = after.prefetches - before.prefetches;
  d.flush_write_calls = after.flush_write_calls - before.flush_write_calls;
  d.flush_write_pages = after.flush_write_pages - before.flush_write_pages;
  d.gather_read_calls = after.gather_read_calls - before.gather_read_calls;
  d.gather_read_pages = after.gather_read_pages - before.gather_read_pages;
  return d;
}

/// The io-layer per-layer metrics: pool counters since the measured phase
/// began (`pool`), IoStats reset at that point (`stats`), and the payload
/// bytes the workload consumed (the load-amplification denominator).
inline void report_io_layer(RunResult& r, const io::PoolStats& pool,
                            const io::IoStats& stats, std::size_t page_size,
                            double payload_bytes_read) {
  r.metrics["io.pool_hit_ratio"] =
      ratio(static_cast<double>(pool.hits),
            static_cast<double>(pool.hits + pool.misses));
  r.metrics["io.pool_misses"] = static_cast<double>(pool.misses);
  r.metrics["io.pool_evictions"] = static_cast<double>(pool.evictions);
  r.metrics["io.pool_writebacks"] = static_cast<double>(pool.writebacks);
  r.metrics["io.prefetch_pages"] = static_cast<double>(pool.prefetches);
  r.metrics["io.readv_pages_per_call"] =
      ratio(static_cast<double>(pool.gather_read_pages),
            static_cast<double>(pool.gather_read_calls));
  r.metrics["io.writev_pages_per_call"] =
      ratio(static_cast<double>(pool.flush_write_pages),
            static_cast<double>(pool.flush_write_calls));
  r.metrics["io.load_amplification"] =
      ratio(static_cast<double>(pool.misses + pool.prefetches),
            payload_bytes_read / static_cast<double>(page_size));
  const auto mean_us = [&](io::IoOp op) {
    return stats.op_snapshot(op).mean_ms * 1e3;
  };
  r.metrics["io.readv_mean_us"] = mean_us(io::IoOp::kReadv);
  r.metrics["io.writev_mean_us"] = mean_us(io::IoOp::kWritev);
  r.metrics["io.open_mean_us"] = mean_us(io::IoOp::kOpen);
  r.metrics["io.close_mean_us"] = mean_us(io::IoOp::kClose);
  r.metrics["io.read_mean_us"] = mean_us(io::IoOp::kRead);
  r.metrics["io.write_mean_us"] = mean_us(io::IoOp::kWrite);
  r.metrics["io.seek_mean_us"] = mean_us(io::IoOp::kSeek);
}

/// Server-side view of the measured phase: stage timers (reset when the
/// phase began), the send tier of each of the run's `get_ok` successful
/// GETs, and the part of the client's mean latency no server stage
/// accounts for.
void report_net_layer(RunResult& r, net::MiniWebServer& server,
                      std::uint64_t get_ok, double client_mean_ms);

/// Served-byte oracle: the server's GET/POST body counters must equal what
/// the clients received and sent over the whole run.
void check_served_bytes(Oracle& oracle, const net::MiniWebServer& server,
                        std::uint64_t get_bytes, std::uint64_t post_bytes);

/// Drains readahead, then runs BufferPool::debug_validate().
void check_pool(Oracle& oracle, io::BufferPool& pool);

/// Stops a server after a pause with no traffic.  MiniWebServer::stop()
/// clears running_ without holding queue_mutex_, so a worker that is just
/// entering its queue wait can miss stop()'s only notify and never exit,
/// hanging the join; once the server has idled, every worker is asleep in
/// the wait and gets the wake-up.
inline void stop_when_idle(net::MiniWebServer& server) {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
}

// --------------------------------------------------------------- setup ----

/// Commits the filesystem holding `dir` (syncfs), so deletions and
/// metadata left by earlier work are not flushed during a timed section.
inline void sync_filesystem(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

/// Builds a workload's state repeatedly, each time from an empty `dir`
/// (see kSetupWindowSeconds), and reports setup_s over the build times.
/// The last state is kept.
template <typename State, typename Make>
std::unique_ptr<State> timed_setup(const std::filesystem::path& dir,
                                   RunResult& r, Make make) {
  using Clock = util::Stopwatch::Clock;
  const auto spacing = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kSetupWindowSeconds / kMaxSetupReps));
  const auto start = Clock::now();
  std::unique_ptr<State> state;
  std::vector<double> seconds;
  for (;;) {
    state.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    sync_filesystem(dir);
    const util::Stopwatch watch;
    state = make(dir);
    seconds.push_back(watch.elapsed_sec());
    const std::size_t n = seconds.size();
    if (n == kMaxSetupReps) break;
    if (n >= kMinSetupReps &&
        Clock::now() - start >= spacing * static_cast<int>(kMaxSetupReps)) {
      break;
    }
    std::this_thread::sleep_until(start + spacing * static_cast<int>(n));
  }
  r.metrics["setup_s"] = median(seconds);
  r.values.emplace_back("setup_s", seconds);
  r.params.emplace_back("setup_reps", static_cast<double>(seconds.size()));
  return state;
}

// ------------------------------------------------------------ workloads ---

void run_web(const RunConfig& config, Tracer& tracer, RunResult& r);
void run_vm_scan(const RunConfig& config, Tracer& tracer, RunResult& r);
void run_replay(const RunConfig& config, Tracer& tracer, RunResult& r);

}  // namespace clio::bench
