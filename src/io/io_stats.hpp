#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string_view>

#include "util/histogram.hpp"
#include "util/statistics.hpp"

namespace clio::io {

/// I/O operation classes.  The numeric values of the first five match the
/// UMD trace format the paper uses (Open=0, Close=1, Read=2, Write=3,
/// Seek=4); the vectored classes are internal — they account the backing
/// gather/scatter calls the buffer pool's coalesced flush and prefetch
/// paths issue, so batching ratios are observable from IoStats.  Traces
/// never carry them (see kIoTraceOpCount).
enum class IoOp : std::uint8_t {
  kOpen = 0,
  kClose = 1,
  kRead = 2,
  kWrite = 3,
  kSeek = 4,
  kReadv = 5,   ///< coalesced backing gather read (pool-internal)
  kWritev = 6,  ///< coalesced backing gather write (pool-internal)
};

/// Op codes a UMD trace record may carry (kOpen..kSeek).
inline constexpr std::size_t kIoTraceOpCount = 5;
/// All op classes IoStats accounts, including the vectored internals.
inline constexpr std::size_t kIoOpCount = 7;

[[nodiscard]] std::string_view io_op_name(IoOp op);

/// Resilience-layer counters: what the retry/breaker machinery did on top
/// of the raw op latencies.  Snapshot value returned by
/// IoStats::resilience().
struct ResilienceCounters {
  std::uint64_t retries = 0;            ///< transient failures re-issued
  std::uint64_t absorbed_faults = 0;    ///< ops that failed, retried, succeeded
  std::uint64_t breaker_trips = 0;      ///< circuit-breaker open transitions
  std::uint64_t breaker_fast_fails = 0; ///< calls refused by an open breaker
  std::uint64_t deadline_expiries = 0;  ///< retry loops cut short by deadlines
};

/// Thread-safe point-in-time summary of one op class, returned by
/// IoStats::op_snapshot() — the live-observability counterpart of the
/// reference-returning op_stats()/op_histogram() accessors, safe to call
/// while worker threads are still recording.
struct OpSnapshot {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t bytes = 0;
};

/// Per-operation-class latency accounting for a managed file system.
///
/// Keeps streaming statistics and a log2 histogram per op class.
///
/// record() and reset() are internally synchronized so every worker thread
/// of a server can account into one instance.  The value-returning readers
/// (total_ms, total_bytes, render) take the same lock; op_stats and
/// op_histogram hand out references, so call those only after the recording
/// threads have quiesced (benchmarks report after joining their workers).
class IoStats {
 public:
  void record(IoOp op, std::uint64_t bytes, double ms);
  void reset();

  [[nodiscard]] const util::RunningStats& op_stats(IoOp op) const;
  [[nodiscard]] const util::LatencyHistogram& op_histogram(IoOp op) const;

  /// Total bytes recorded against one op class.  With the vectored classes
  /// this is what makes coalescing ratios observable from stats alone:
  /// op_bytes(kWritev) / (op_stats(kWritev).count() * page_size) is the
  /// pages-per-backing-call ratio of the flush path.
  [[nodiscard]] std::uint64_t op_bytes(IoOp op) const;

  /// Locked value copy of one op class — unlike op_stats/op_histogram this
  /// is safe while recording threads are live, which is what the /statz
  /// endpoint and the metric gauges scrape.
  [[nodiscard]] OpSnapshot op_snapshot(IoOp op) const;

  /// Total milliseconds across all operation classes.
  [[nodiscard]] double total_ms() const;
  /// Total bytes moved by read+write.
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Resilience counters, fed by io::RetryingStore::bind_stats().
  void record_retry();
  void record_absorbed_fault();
  void record_breaker_trip();
  void record_breaker_fast_fail();
  void record_deadline_expiry();
  [[nodiscard]] ResilienceCounters resilience() const;

  /// Renders a per-op-class summary table (count, mean ms, min, max, bytes),
  /// followed by a resilience line when any retry/breaker activity occurred.
  void render(std::ostream& os) const;

 private:
  std::array<util::RunningStats, kIoOpCount> stats_{};
  std::array<util::LatencyHistogram, kIoOpCount> histograms_{};
  std::array<std::uint64_t, kIoOpCount> bytes_{};
  ResilienceCounters resilience_{};
  mutable std::mutex mutex_;
};

}  // namespace clio::io
