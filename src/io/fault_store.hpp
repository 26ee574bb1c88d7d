#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "io/file_store.hpp"
#include "io/store_decorator.hpp"
#include "util/rng.hpp"

namespace clio::io {

/// The four data-path operations a FaultStore can inject faults into.
/// Metadata operations (open/close/size/...) are always forwarded verbatim:
/// the buffer pool's interesting unwind paths all hang off the data ops.
enum class FaultOp : std::uint8_t {
  kRead = 0,
  kWrite = 1,
  kReadv = 2,
  kWritev = 3,
};

inline constexpr std::size_t kFaultOpCount = 4;

[[nodiscard]] std::string_view fault_op_name(FaultOp op);

/// Declarative description of the faults a FaultStore injects.  All
/// randomness is drawn from one SplitMix64 stream seeded with `seed`, so a
/// given plan replays identically in a single-threaded test; multi-threaded
/// stress runs are reproduced by re-running with the same seed (every
/// harness failure message prints it).
struct FaultPlan {
  std::uint64_t seed = 0x5eed;

  /// Per-op probability in [0, 1] that a call throws util::IoError before
  /// touching the inner store (a clean EIO).  Indexed by FaultOp.
  std::array<double, kFaultOpCount> fail_prob{};

  /// 1-based call index at which that op fails with a clean EIO (0 = off).
  /// Counts calls of that op since construction / reset(), letting a test
  /// aim a fault at an exact code path ("the 2nd readv = the request
  /// gather for the second run").  Indexed by FaultOp.
  std::array<std::uint64_t, kFaultOpCount> fail_nth{};

  /// Probability that a read/readv fills only a random prefix of its
  /// payload from the inner store and then throws.  The caller must treat
  /// the buffer as garbage — exactly what a failed DMA leaves behind.
  double short_read_prob = 0.0;

  /// Probability that a write/writev persists only a random prefix of its
  /// bytes to the inner store and then throws (a torn write).
  double torn_write_prob = 0.0;

  /// Torn-write prefixes (including disk-full tears) are rounded down to a
  /// multiple of this many bytes.  Stress harnesses set it to the pool's
  /// page size so a torn multi-page writev tears *between* pages and the
  /// byte oracle stays page-uniform; unit tests use 1 to tear anywhere.
  std::size_t torn_granularity = 1;

  /// Probability of sleeping `latency_us` before an op proceeds — a latency
  /// spike mid-eviction or mid-gather, widening race windows.
  double latency_prob = 0.0;
  std::uint32_t latency_us = 50;

  /// Total bytes writable through this store before every further write
  /// throws "disk full" (0 = unlimited).  The failing write is torn at the
  /// budget boundary (rounded down to torn_granularity).  Overwrites charge
  /// the budget too — this models a byte quota, not a block allocator.
  std::uint64_t disk_full_after_bytes = 0;
};

/// Counters of what a FaultStore actually did, for asserting injection
/// rates ("this run injected >= 1 fault per 100 ops") and for bench output.
struct FaultStats {
  std::array<std::uint64_t, kFaultOpCount> calls{};   ///< ops that reached the store
  std::array<std::uint64_t, kFaultOpCount> faults{};  ///< ops that threw
  std::uint64_t short_reads = 0;      ///< reads torn mid-fill (subset of faults)
  std::uint64_t torn_writes = 0;      ///< writes torn mid-persist (subset)
  std::uint64_t disk_full_faults = 0; ///< writes refused by the byte budget
  std::uint64_t latency_injections = 0;

  [[nodiscard]] std::uint64_t total_calls() const;
  [[nodiscard]] std::uint64_t total_faults() const;
};

/// BackingStore decorator that injects deterministic, seeded faults into
/// the data path: clean EIOs, short reads, torn writes, latency spikes and
/// disk-full, per the FaultPlan.  Wraps any store (RealFileStore,
/// SimFileStore, a test double), so the same plan exercises the buffer
/// pool's unwind paths against real kernel I/O and the modeled array alike.
///
/// Thread-safe: fault decisions (RNG draws, counters, the byte budget) are
/// taken under one mutex, but the inner store call and any injected sleep
/// run outside it, so concurrency between data ops is preserved.
///
/// Faults surface as util::IoError, the same type real store failures use —
/// callers cannot (and must not) tell them apart.
class FaultStore final : public StoreDecorator {
 public:
  /// Decorates a store owned elsewhere (must outlive this).
  FaultStore(BackingStore& inner, FaultPlan plan = {});

  /// Decorates and owns the inner store — the shape ManagedFileSystem
  /// needs, since it takes its store by unique_ptr.
  FaultStore(std::unique_ptr<BackingStore> inner, FaultPlan plan = {});

  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override;
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override;
  void writev(FileId id, std::uint64_t offset,
              std::span<const std::span<const std::byte>> parts) override;
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override;

  /// Master switch.  Disarmed, every op forwards verbatim (and is not
  /// counted) — harnesses disarm before their final flush + oracle check.
  void arm(bool on);
  [[nodiscard]] bool armed() const;

  /// Forces the next `n` calls of `op` to fail with a clean EIO, ahead of
  /// any plan probability.  Lets a test aim a fault at "whatever backing
  /// read the pool issues next" without computing call indices.
  void fail_next(FaultOp op, std::uint64_t n);

  /// Replaces the plan and reseeds the RNG from it (counters are kept).
  void set_plan(FaultPlan plan);
  [[nodiscard]] FaultPlan plan() const;

  [[nodiscard]] FaultStats stats() const;

  /// Clears counters, the forced-failure latches and the disk-full budget
  /// consumption, and reseeds the RNG from the plan.
  void reset();

 private:
  /// What decide() resolved for one call; acted on outside the mutex.
  struct Decision {
    std::uint32_t sleep_us = 0;  ///< injected latency (0 = none)
    bool fail_clean = false;     ///< throw before any side effect
    bool tear = false;           ///< forward `partial_bytes`, then throw
    std::size_t partial_bytes = 0;
    const char* reason = "";
    std::uint64_t call_index = 0;
  };

  Decision decide(FaultOp op, std::uint64_t payload_bytes);
  [[noreturn]] void throw_injected(FaultOp op, const Decision& d) const;
  double roll();  ///< uniform [0,1) from the seeded stream; mutex held

  mutable std::mutex mutex_;
  FaultPlan plan_;
  util::SplitMix64 rng_;
  FaultStats stats_;
  std::array<std::uint64_t, kFaultOpCount> forced_fails_{};
  std::uint64_t bytes_written_ = 0;  ///< disk-full budget consumption
  bool armed_ = true;
};

}  // namespace clio::io
