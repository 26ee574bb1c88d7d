#include "io/retrying_store.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>
#include <utility>

#include "util/error.hpp"

namespace clio::io {

using util::Deadline;
using util::DeadlineScope;
using util::TimeoutError;
using util::TransientIoError;

RetryingStore::RetryingStore(BackingStore& inner, RetryPolicy policy,
                             util::CircuitBreaker* breaker)
    : StoreDecorator(inner), policy_(policy), breaker_(breaker),
      rng_(policy.seed) {}

RetryingStore::RetryingStore(std::unique_ptr<BackingStore> inner,
                             RetryPolicy policy, util::CircuitBreaker* breaker)
    : StoreDecorator(std::move(inner)), policy_(policy), breaker_(breaker),
      rng_(policy.seed) {}

// Metadata operations forward verbatim through StoreDecorator.

// ------------------------------------------------------------- control ----

void RetryingStore::bind_stats(IoStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  io_stats_ = stats;
}

RetryStats RetryingStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void RetryingStore::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = RetryStats{};
  rng_ = util::SplitMix64(policy_.seed);
}

std::uint64_t RetryingStore::next_backoff_seed() {
  std::lock_guard<std::mutex> lock(mutex_);
  return rng_.next();
}

// Counter notes.  Each takes the mutex once; the hot path (success on the
// first attempt) pays exactly one note_attempt().
void RetryingStore::note_attempt() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.attempts++;
}
void RetryingStore::note_retry() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.retries++;
  if (io_stats_ != nullptr) io_stats_->record_retry();
}
void RetryingStore::note_absorbed() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.absorbed++;
  if (io_stats_ != nullptr) io_stats_->record_absorbed_fault();
}
void RetryingStore::note_exhausted() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.exhausted++;
}
void RetryingStore::note_permanent() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.permanent++;
}
void RetryingStore::note_fast_fail() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.fast_fails++;
  if (io_stats_ != nullptr) io_stats_->record_breaker_fast_fail();
}
void RetryingStore::note_deadline_expiry() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.deadline_expiries++;
  if (io_stats_ != nullptr) io_stats_->record_deadline_expiry();
}
void RetryingStore::note_trip() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (io_stats_ != nullptr) io_stats_->record_breaker_trip();
}

// ------------------------------------------------------------ the loop ----

template <typename Fn>
auto RetryingStore::with_retries(const char* op, Fn&& fn) -> decltype(fn()) {
  // Effective deadline: the tighter of the per-op budget and the calling
  // thread's ambient (per-request) budget.
  Deadline deadline = DeadlineScope::current();
  if (policy_.op_deadline_ms > 0) {
    deadline =
        Deadline::earlier(deadline, Deadline::after_ms(policy_.op_deadline_ms));
  }
  util::Backoff backoff(policy_.backoff, next_backoff_seed());
  bool retried = false;
  for (;;) {
    if (breaker_ != nullptr && !breaker_->try_acquire()) {
      note_fast_fail();
      throw TransientIoError(std::string("RetryingStore: circuit open, ") +
                             op + " fast-failed");
    }
    note_attempt();
    try {
      if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        if (breaker_ != nullptr) breaker_->record_success();
        if (retried) note_absorbed();
        return;
      } else {
        auto result = fn();
        if (breaker_ != nullptr) breaker_->record_success();
        if (retried) note_absorbed();
        return result;
      }
    } catch (const TransientIoError&) {
      if (breaker_ != nullptr && breaker_->record_failure()) note_trip();
      if (backoff.exhausted()) {
        note_exhausted();
        throw;
      }
      const auto delay = backoff.next_delay();
      if (deadline.expired() || deadline.remaining() < delay) {
        note_deadline_expiry();
        throw TimeoutError(
            std::string("RetryingStore: deadline exhausted retrying ") + op);
      }
      std::this_thread::sleep_for(delay);
      retried = true;
      note_retry();
    } catch (const util::IoError&) {
      // Permanent storage semantics (torn write, disk full, closed id):
      // the store answered definitively.  Never retried, and recorded as a
      // breaker success — the infrastructure is reachable and responsive.
      if (breaker_ != nullptr) breaker_->record_success();
      note_permanent();
      throw;
    }
  }
}

// ------------------------------------------------------------- data ops ----

std::size_t RetryingStore::read(FileId id, std::uint64_t offset,
                                std::span<std::byte> out) {
  return with_retries("read", [&] { return inner_.read(id, offset, out); });
}

std::size_t RetryingStore::readv(FileId id, std::uint64_t offset,
                                 std::span<const std::span<std::byte>> parts) {
  return with_retries("readv", [&] { return inner_.readv(id, offset, parts); });
}

void RetryingStore::write(FileId id, std::uint64_t offset,
                          std::span<const std::byte> data) {
  with_retries("write", [&] { inner_.write(id, offset, data); });
}

void RetryingStore::writev(FileId id, std::uint64_t offset,
                           std::span<const std::span<const std::byte>> parts) {
  with_retries("writev", [&] { inner_.writev(id, offset, parts); });
}

}  // namespace clio::io
