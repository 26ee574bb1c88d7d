#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "io/file_store.hpp"
#include "io/io_stats.hpp"
#include "io/store_decorator.hpp"
#include "util/resilience.hpp"
#include "util/rng.hpp"

namespace clio::io {

/// Retry policy of a RetryingStore.  The backoff schedule is seeded so a
/// seeded test replays the exact same sleep sequence; `seed` feeds one
/// SplitMix64 stream from which each data op derives its own jitter stream.
struct RetryPolicy {
  util::BackoffPolicy backoff{};
  std::uint64_t seed = 0x5eed;
  /// Per-op wall-clock budget (0 = none).  Independently of this knob, the
  /// calling thread's ambient util::DeadlineScope — the per-request budget
  /// the serving layer arms — is always honored: the retry loop gives up
  /// with util::TimeoutError rather than sleep past either deadline.
  std::uint32_t op_deadline_ms = 0;
};

/// Counters of what a RetryingStore actually did.
struct RetryStats {
  std::uint64_t attempts = 0;    ///< inner data-path calls issued
  std::uint64_t retries = 0;     ///< re-issues after a transient failure
  std::uint64_t absorbed = 0;    ///< ops that failed, were retried, and succeeded
  std::uint64_t exhausted = 0;   ///< transient failures surfaced (retries spent)
  std::uint64_t permanent = 0;   ///< permanent failures surfaced immediately
  std::uint64_t fast_fails = 0;  ///< calls refused by an open circuit breaker
  std::uint64_t deadline_expiries = 0;  ///< retry loops cut short by a deadline
};

/// BackingStore decorator that makes the data path *react* to faults
/// instead of surfacing every blip: transient errors (util::TransientIoError
/// — clean EIOs, injected short reads) are retried with bounded,
/// seeded-jitter exponential backoff under per-op and ambient deadlines,
/// while permanent errors (torn writes, disk full, bad handles — plain
/// util::IoError) surface immediately and are never retried blindly.
///
/// An optional shared util::CircuitBreaker (not owned) turns repeated
/// failure into fast-fails: every attempt asks try_acquire() first, every
/// outcome is recorded, and while the breaker is open calls fail instantly
/// with TransientIoError instead of piling retries onto a sick store.
/// Permanent errors count as breaker *successes*: the store answered
/// definitively, so the infrastructure is healthy.
///
/// Metadata operations forward verbatim (the FaultStore convention: the
/// interesting unwind paths all hang off the data ops).
///
/// Thread-safe: counters and the seed stream are mutex-guarded; inner
/// calls and backoff sleeps run outside the lock.
class RetryingStore final : public StoreDecorator {
 public:
  /// Decorates a store owned elsewhere (must outlive this).
  RetryingStore(BackingStore& inner, RetryPolicy policy = {},
                util::CircuitBreaker* breaker = nullptr);

  /// Decorates and owns the inner store — the shape ManagedFileSystem
  /// needs, since it takes its store by unique_ptr.
  RetryingStore(std::unique_ptr<BackingStore> inner, RetryPolicy policy = {},
                util::CircuitBreaker* breaker = nullptr);

  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override;
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override;
  void writev(FileId id, std::uint64_t offset,
              std::span<const std::span<const std::byte>> parts) override;
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override;

  /// Mirrors retries / breaker trips / fast-fails / deadline expiries into
  /// an IoStats' resilience counters (not owned; call before traffic or
  /// after quiescing).  ManagedFileSystem owners bind their fs.stats() so
  /// the availability machinery shows up next to the latency tables.
  void bind_stats(IoStats* stats) override;

  [[nodiscard]] RetryStats stats() const;
  void reset_stats();

  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }
  [[nodiscard]] util::CircuitBreaker* breaker() { return breaker_; }

 private:
  /// Runs one data op under the retry/backoff/breaker/deadline loop.
  template <typename Fn>
  auto with_retries(const char* op, Fn&& fn)
      -> decltype(fn());

  [[nodiscard]] std::uint64_t next_backoff_seed();
  void note_retry();
  void note_absorbed();
  void note_exhausted();
  void note_permanent();
  void note_fast_fail();
  void note_deadline_expiry();
  void note_attempt();
  void note_trip();

  RetryPolicy policy_;
  util::CircuitBreaker* breaker_;  ///< not owned; may be null
  IoStats* io_stats_ = nullptr;    ///< not owned; may be null
  mutable std::mutex mutex_;       ///< stats_ + rng_
  util::SplitMix64 rng_;
  RetryStats stats_;
};

}  // namespace clio::io
