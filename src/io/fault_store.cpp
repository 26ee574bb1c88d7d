#include "io/fault_store.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace clio::io {

using util::check;
using util::IoError;

std::string_view fault_op_name(FaultOp op) {
  switch (op) {
    case FaultOp::kRead:
      return "read";
    case FaultOp::kWrite:
      return "write";
    case FaultOp::kReadv:
      return "readv";
    case FaultOp::kWritev:
      return "writev";
  }
  return "?";
}

std::uint64_t FaultStats::total_calls() const {
  std::uint64_t total = 0;
  for (const auto c : calls) total += c;
  return total;
}

std::uint64_t FaultStats::total_faults() const {
  std::uint64_t total = 0;
  for (const auto f : faults) total += f;
  return total;
}

FaultStore::FaultStore(BackingStore& inner, FaultPlan plan)
    : StoreDecorator(inner), plan_(plan), rng_(plan.seed) {
  check<util::ConfigError>(plan_.torn_granularity >= 1,
                           "FaultStore: torn_granularity must be >= 1");
}

FaultStore::FaultStore(std::unique_ptr<BackingStore> inner, FaultPlan plan)
    : StoreDecorator(std::move(inner)), plan_(plan), rng_(plan.seed) {
  check<util::ConfigError>(plan_.torn_granularity >= 1,
                           "FaultStore: torn_granularity must be >= 1");
}

// Metadata operations forward through the StoreDecorator base verbatim:
// the buffer pool's interesting unwind paths all hang off the data ops.

// ------------------------------------------------------------- control ----

void FaultStore::arm(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = on;
}

bool FaultStore::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return armed_;
}

void FaultStore::fail_next(FaultOp op, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  forced_fails_[static_cast<std::size_t>(op)] = n;
}

void FaultStore::set_plan(FaultPlan plan) {
  check<util::ConfigError>(plan.torn_granularity >= 1,
                           "FaultStore: torn_granularity must be >= 1");
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
  rng_ = util::SplitMix64(plan.seed);
}

FaultPlan FaultStore::plan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_;
}

FaultStats FaultStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void FaultStore::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = FaultStats{};
  forced_fails_.fill(0);
  bytes_written_ = 0;
  rng_ = util::SplitMix64(plan_.seed);
}

// ------------------------------------------------------------ decisions ----

double FaultStore::roll() {
  return static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;
}

/// Resolves every injected behaviour for one call under the mutex; the
/// caller performs the (possibly trimmed) inner op and any sleep outside
/// it.  Check order: forced > fail_nth > fail_prob > tear/short > budget —
/// the exact-targeting triggers win so tests can aim faults precisely even
/// with background probabilities armed.
FaultStore::Decision FaultStore::decide(FaultOp op,
                                        std::uint64_t payload_bytes) {
  const auto idx = static_cast<std::size_t>(op);
  const bool is_write = op == FaultOp::kWrite || op == FaultOp::kWritev;
  std::lock_guard<std::mutex> lock(mutex_);
  Decision d;
  if (!armed_) return d;
  d.call_index = ++stats_.calls[idx];
  if (plan_.latency_prob > 0.0 && roll() < plan_.latency_prob) {
    d.sleep_us = plan_.latency_us;
    stats_.latency_injections++;
  }
  if (forced_fails_[idx] > 0) {
    forced_fails_[idx]--;
    stats_.faults[idx]++;
    d.fail_clean = true;
    d.reason = "forced EIO";
    return d;
  }
  if (plan_.fail_nth[idx] != 0 && d.call_index == plan_.fail_nth[idx]) {
    stats_.faults[idx]++;
    d.fail_clean = true;
    d.reason = "EIO (fail_nth)";
    return d;
  }
  if (plan_.fail_prob[idx] > 0.0 && roll() < plan_.fail_prob[idx]) {
    stats_.faults[idx]++;
    d.fail_clean = true;
    d.reason = "EIO";
    return d;
  }
  if (!is_write && payload_bytes > 0 && plan_.short_read_prob > 0.0 &&
      roll() < plan_.short_read_prob) {
    stats_.faults[idx]++;
    stats_.short_reads++;
    d.tear = true;
    d.partial_bytes =
        static_cast<std::size_t>(rng_.next() % payload_bytes);
    d.reason = "short read";
    return d;
  }
  if (is_write && payload_bytes > 0 && plan_.torn_write_prob > 0.0 &&
      roll() < plan_.torn_write_prob) {
    stats_.faults[idx]++;
    stats_.torn_writes++;
    d.tear = true;
    d.partial_bytes = static_cast<std::size_t>(
        (rng_.next() % payload_bytes) / plan_.torn_granularity *
        plan_.torn_granularity);
    if (plan_.disk_full_after_bytes > 0) {
      // The persisted prefix charges the byte budget too, and is capped by
      // it — a torn write must not smuggle bytes past the quota.
      const std::uint64_t budget = plan_.disk_full_after_bytes;
      const std::uint64_t allowed =
          budget > bytes_written_ ? budget - bytes_written_ : 0;
      d.partial_bytes = static_cast<std::size_t>(std::min<std::uint64_t>(
          d.partial_bytes,
          allowed / plan_.torn_granularity * plan_.torn_granularity));
      bytes_written_ += d.partial_bytes;
    }
    d.reason = "torn write";
    return d;
  }
  if (is_write && plan_.disk_full_after_bytes > 0) {
    const std::uint64_t budget = plan_.disk_full_after_bytes;
    if (bytes_written_ + payload_bytes > budget) {
      const std::uint64_t allowed =
          budget > bytes_written_ ? budget - bytes_written_ : 0;
      stats_.faults[idx]++;
      stats_.disk_full_faults++;
      d.tear = true;
      d.partial_bytes = static_cast<std::size_t>(
          allowed / plan_.torn_granularity * plan_.torn_granularity);
      d.reason = "disk full";
      bytes_written_ = budget;  // the budget is gone either way
      return d;
    }
    bytes_written_ += payload_bytes;
  }
  return d;
}

void FaultStore::throw_injected(FaultOp op, const Decision& d) const {
  const std::string what = "FaultStore: injected " + std::string(d.reason) +
                           " on " + std::string(fault_op_name(op)) +
                           " (call #" + std::to_string(d.call_index) + ")";
  // Clean EIOs and short reads are transient: nothing durable changed, a
  // retry may succeed.  Torn writes and disk-full are permanent: bytes (or
  // a quota) are gone, so blind re-issue would corrupt — plain IoError.
  const bool is_write = op == FaultOp::kWrite || op == FaultOp::kWritev;
  if (d.fail_clean || (d.tear && !is_write)) {
    throw util::TransientIoError(what);
  }
  throw IoError(what);
}

// ------------------------------------------------------------- data ops ----

std::size_t FaultStore::read(FileId id, std::uint64_t offset,
                             std::span<std::byte> out) {
  const Decision d = decide(FaultOp::kRead, out.size());
  if (d.sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(d.sleep_us));
  }
  if (d.fail_clean) throw_injected(FaultOp::kRead, d);
  if (d.tear) {
    // Fill a prefix so the caller's buffer is observably dirtied, then
    // fail: the unwind path must treat the whole buffer as garbage.
    static_cast<void>(inner_.read(id, offset, out.first(d.partial_bytes)));
    throw_injected(FaultOp::kRead, d);
  }
  return inner_.read(id, offset, out);
}

std::size_t FaultStore::readv(FileId id, std::uint64_t offset,
                              std::span<const std::span<std::byte>> parts) {
  std::uint64_t total = 0;
  for (const auto& part : parts) total += part.size();
  const Decision d = decide(FaultOp::kReadv, total);
  if (d.sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(d.sleep_us));
  }
  if (d.fail_clean) throw_injected(FaultOp::kReadv, d);
  if (d.tear) {
    std::size_t budget = d.partial_bytes;
    std::vector<std::span<std::byte>> trimmed;
    for (const auto& part : parts) {
      if (budget == 0) break;
      const std::size_t n = std::min(part.size(), budget);
      trimmed.push_back(part.first(n));
      budget -= n;
    }
    if (!trimmed.empty()) static_cast<void>(inner_.readv(id, offset, trimmed));
    throw_injected(FaultOp::kReadv, d);
  }
  return inner_.readv(id, offset, parts);
}

void FaultStore::write(FileId id, std::uint64_t offset,
                       std::span<const std::byte> data) {
  const Decision d = decide(FaultOp::kWrite, data.size());
  if (d.sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(d.sleep_us));
  }
  if (d.fail_clean) throw_injected(FaultOp::kWrite, d);
  if (d.tear) {
    if (d.partial_bytes > 0) {
      inner_.write(id, offset, data.first(d.partial_bytes));
    }
    throw_injected(FaultOp::kWrite, d);
  }
  inner_.write(id, offset, data);
}

void FaultStore::writev(FileId id, std::uint64_t offset,
                        std::span<const std::span<const std::byte>> parts) {
  std::uint64_t total = 0;
  for (const auto& part : parts) total += part.size();
  const Decision d = decide(FaultOp::kWritev, total);
  if (d.sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(d.sleep_us));
  }
  if (d.fail_clean) throw_injected(FaultOp::kWritev, d);
  if (d.tear) {
    // Persist a prefix of the gather — with page-sized granularity this is
    // exactly the "torn multi-page writev" case: some pages land, the rest
    // (and the error) are the flusher's problem.
    std::size_t budget = d.partial_bytes;
    std::vector<std::span<const std::byte>> trimmed;
    for (const auto& part : parts) {
      if (budget == 0) break;
      const std::size_t n = std::min(part.size(), budget);
      trimmed.push_back(part.first(n));
      budget -= n;
    }
    if (!trimmed.empty()) inner_.writev(id, offset, trimmed);
    throw_injected(FaultOp::kWritev, d);
  }
  inner_.writev(id, offset, parts);
}

}  // namespace clio::io
