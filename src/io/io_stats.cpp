#include "io/io_stats.hpp"

#include <ostream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace clio::io {

std::string_view io_op_name(IoOp op) {
  switch (op) {
    case IoOp::kOpen:
      return "open";
    case IoOp::kClose:
      return "close";
    case IoOp::kRead:
      return "read";
    case IoOp::kWrite:
      return "write";
    case IoOp::kSeek:
      return "seek";
    case IoOp::kReadv:
      return "readv";
    case IoOp::kWritev:
      return "writev";
  }
  return "?";
}

void IoStats::record(IoOp op, std::uint64_t bytes, double ms) {
  const auto idx = static_cast<std::size_t>(op);
  util::check<util::ConfigError>(idx < kIoOpCount, "IoStats: bad op");
  std::lock_guard<std::mutex> lock(mutex_);
  stats_[idx].push(ms);
  histograms_[idx].push(static_cast<std::uint64_t>(ms * 1e6));
  bytes_[idx] += bytes;
}

void IoStats::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& s : stats_) s.reset();
  for (auto& h : histograms_) h.reset();
  bytes_.fill(0);
  resilience_ = ResilienceCounters{};
}

void IoStats::record_retry() {
  std::lock_guard<std::mutex> lock(mutex_);
  resilience_.retries++;
}

void IoStats::record_absorbed_fault() {
  std::lock_guard<std::mutex> lock(mutex_);
  resilience_.absorbed_faults++;
}

void IoStats::record_breaker_trip() {
  std::lock_guard<std::mutex> lock(mutex_);
  resilience_.breaker_trips++;
}

void IoStats::record_breaker_fast_fail() {
  std::lock_guard<std::mutex> lock(mutex_);
  resilience_.breaker_fast_fails++;
}

void IoStats::record_deadline_expiry() {
  std::lock_guard<std::mutex> lock(mutex_);
  resilience_.deadline_expiries++;
}

ResilienceCounters IoStats::resilience() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resilience_;
}

const util::RunningStats& IoStats::op_stats(IoOp op) const {
  // Returns a reference, so no lock is useful here: callers read these
  // after their workers quiesce (see the class comment).
  return stats_.at(static_cast<std::size_t>(op));
}

const util::LatencyHistogram& IoStats::op_histogram(IoOp op) const {
  return histograms_.at(static_cast<std::size_t>(op));
}

std::uint64_t IoStats::op_bytes(IoOp op) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_.at(static_cast<std::size_t>(op));
}

OpSnapshot IoStats::op_snapshot(IoOp op) const {
  const auto idx = static_cast<std::size_t>(op);
  util::check<util::ConfigError>(idx < kIoOpCount, "IoStats: bad op");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto& s = stats_[idx];
  OpSnapshot snap;
  snap.count = s.count();
  if (snap.count > 0) {
    snap.mean_ms = s.mean();
    snap.min_ms = s.min();
    snap.max_ms = s.max();
  }
  snap.bytes = bytes_[idx];
  return snap;
}

double IoStats::total_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& s : stats_) total += s.sum();
  return total;
}

std::uint64_t IoStats::total_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_[static_cast<std::size_t>(IoOp::kRead)] +
         bytes_[static_cast<std::size_t>(IoOp::kWrite)];
}

void IoStats::render(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::TextTable table(
      {"op", "count", "mean (ms)", "min (ms)", "max (ms)", "bytes"});
  for (std::size_t i = 0; i < kIoOpCount; ++i) {
    const auto& s = stats_[i];
    if (s.count() == 0) continue;
    table.add_row({std::string(io_op_name(static_cast<IoOp>(i))),
                   std::to_string(s.count()), util::format_ms(s.mean()),
                   util::format_ms(s.min()), util::format_ms(s.max()),
                   std::to_string(bytes_[i])});
  }
  table.render(os);
  const auto& r = resilience_;
  if (r.retries != 0 || r.absorbed_faults != 0 || r.breaker_trips != 0 ||
      r.breaker_fast_fails != 0 || r.deadline_expiries != 0) {
    os << "resilience: retries=" << r.retries
       << " absorbed=" << r.absorbed_faults << " trips=" << r.breaker_trips
       << " fast_fails=" << r.breaker_fast_fails
       << " deadline_expiries=" << r.deadline_expiries << "\n";
  }
}

}  // namespace clio::io
