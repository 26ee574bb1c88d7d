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
/// gather/scatter calls the buffer pool's coalesced flush and request
/// gathers issue, so batching ratios are observable from IoStats.  Traces
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
/// while worker threads are still recording.  `count` and `bytes` are
/// exact; the latencies describe the `timed` ops only (see IoStats).
struct OpSnapshot {
  std::uint64_t count = 0;
  std::uint64_t timed = 0;  ///< ops behind mean_ms, min_ms and max_ms
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t bytes = 0;
};

/// One managed file op in this many reads the clock.
inline constexpr std::uint32_t kTimedOneIn = 16;

/// Starts the accounting of one managed file op.  Construction asks the
/// calling thread's sampler whether this op is timed and reads the clock
/// only if it is; IoStats::record(op, bytes, timer) ends the op.
class OpTimer {
 public:
  OpTimer();

 private:
  friend class IoStats;
  bool timed_ = false;
  std::int64_t start_ns_ = 0;
};

/// Per-operation-class accounting for a managed file system.
///
/// Counts every op and its bytes exactly, and keeps streaming latency
/// statistics and a log2 histogram per op class over a sample of the ops.
/// Two clock reads cost about as much as the whole work of a warm seek or
/// read, so a managed file op (record with an OpTimer) is timed only when
/// its thread's xorshift sampler picks it, one in kTimedOneIn.  The pick
/// depends on neither the op class nor a count, so a periodic op pattern
/// (a replayed seek is seek(0) then seek(offset)) cannot alias with it.
/// record with a time in hand always adds a sample.
///
/// record() and reset() are internally synchronized so every worker thread
/// of a server can account into one instance.  The value-returning readers
/// (total_ms, total_bytes, render) take the same lock; op_stats and
/// op_histogram hand out references, so call those only after the recording
/// threads have quiesced (benchmarks report after joining their workers).
class IoStats {
 public:
  /// Counts one op that took `ms` and adds it as a latency sample.
  void record(IoOp op, std::uint64_t bytes, double ms);
  /// Counts one op begun with `timer`; adds a latency sample if the
  /// sampler picked it.
  void record(IoOp op, std::uint64_t bytes, const OpTimer& timer);
  void reset();

  /// Latency statistics and histogram of the timed ops only: count() is
  /// the sample size, not the op count (that is op_snapshot(op).count).
  [[nodiscard]] const util::RunningStats& op_stats(IoOp op) const;
  [[nodiscard]] const util::LatencyHistogram& op_histogram(IoOp op) const;

  /// Total bytes recorded against one op class.  With the vectored classes
  /// this is what makes coalescing ratios observable from stats alone:
  /// op_bytes(kWritev) / (op_snapshot(kWritev).count * page_size) is the
  /// pages-per-backing-call ratio of the flush path.
  [[nodiscard]] std::uint64_t op_bytes(IoOp op) const;

  /// Locked value copy of one op class — unlike op_stats/op_histogram this
  /// is safe while recording threads are live, which is what the /statz
  /// endpoint and the metric gauges scrape.
  [[nodiscard]] OpSnapshot op_snapshot(IoOp op) const;

  /// Estimated milliseconds across all operation classes: each class's op
  /// count times its sampled mean.
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

  /// Renders a per-op-class summary table (count, timed, mean ms, min, max,
  /// bytes), followed by a resilience line when any retry/breaker activity
  /// occurred.
  void render(std::ostream& os) const;

 private:
  std::array<std::uint64_t, kIoOpCount> ops_{};
  std::array<util::RunningStats, kIoOpCount> stats_{};
  std::array<util::LatencyHistogram, kIoOpCount> histograms_{};
  std::array<std::uint64_t, kIoOpCount> bytes_{};
  ResilienceCounters resilience_{};
  mutable std::mutex mutex_;
};

}  // namespace clio::io
