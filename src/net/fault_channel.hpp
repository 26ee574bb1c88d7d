#pragma once

#include <cstdint>
#include <mutex>

#include "net/channel.hpp"
#include "util/rng.hpp"

namespace clio::net {

/// Declarative description of the network faults a NetFaultInjector
/// injects — the serving-layer mirror of io::FaultPlan.  All randomness is
/// drawn from one SplitMix64 stream seeded with `seed`, so a seeded soak
/// run replays the same plan: every harness failure message prints the
/// seed, and re-running with it reproduces the storm.
struct NetFaultPlan {
  std::uint64_t seed = 0x5eed;

  /// Probability that an accepted connection is dropped before it is ever
  /// handed to a worker — the client sees an immediate close.
  double accept_drop_prob = 0.0;

  /// Probability that a recv throws a clean util::IoError (EIO) before
  /// reading anything.
  double recv_fail_prob = 0.0;

  /// Probability that a recv closes the connection and reports orderly
  /// shutdown instead — a client vanishing mid-request.
  double recv_disconnect_prob = 0.0;

  /// Probability that a send throws a clean util::IoError before any byte
  /// leaves.
  double send_fail_prob = 0.0;

  /// Probability that a send transmits only a random prefix, then closes
  /// the connection and throws — a mid-response disconnect.  The peer
  /// receives a truncated message.
  double short_send_prob = 0.0;

  /// Probability of sleeping `latency_us` before an op proceeds — a slow
  /// client stalling a worker, widening race windows in the pool.
  double latency_prob = 0.0;
  std::uint32_t latency_us = 200;
};

/// Counters of what the injector actually did, for asserting injection
/// rates and for bench output.
struct NetFaultStats {
  std::uint64_t accepts = 0;     ///< accept decisions taken
  std::uint64_t recv_calls = 0;  ///< recvs that reached the decision point
  std::uint64_t send_calls = 0;  ///< sends that reached the decision point
  std::uint64_t accept_drops = 0;
  std::uint64_t recv_failures = 0;
  std::uint64_t recv_disconnects = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t short_sends = 0;
  std::uint64_t latency_injections = 0;

  [[nodiscard]] std::uint64_t total_faults() const {
    return accept_drops + recv_failures + recv_disconnects + send_failures +
           short_sends;
  }
};

/// Thread-safe seeded fault decision maker shared by every FaultChannel of
/// one server: decisions (RNG draws, counters) are taken under one mutex,
/// but sleeps and the inner channel I/O run outside it, so injected faults
/// land inside real worker interleavings — the io::FaultStore idiom at the
/// socket layer.
class NetFaultInjector {
 public:
  explicit NetFaultInjector(NetFaultPlan plan = {});

  /// Master switch.  Disarmed, every op forwards verbatim (and is not
  /// counted) — harnesses disarm before their clean drain + oracle check.
  void arm(bool on);
  [[nodiscard]] bool armed() const;

  /// Replaces the plan and reseeds the RNG from it (counters are kept).
  void set_plan(NetFaultPlan plan);
  [[nodiscard]] NetFaultPlan plan() const;

  [[nodiscard]] NetFaultStats stats() const;

  /// Clears counters and reseeds the RNG from the plan.
  void reset();

  /// Accept-path decision: true = drop this freshly accepted connection.
  [[nodiscard]] bool should_drop_accept();

  /// What one channel op should do; acted on outside the mutex.
  struct Decision {
    std::uint32_t sleep_us = 0;  ///< injected latency (0 = none)
    bool fail = false;           ///< throw a clean IoError, no side effect
    bool disconnect = false;     ///< close the inner channel first
    bool tear = false;           ///< send only `keep_bytes`, close, throw
    std::size_t keep_bytes = 0;
  };

  [[nodiscard]] Decision decide_recv();
  [[nodiscard]] Decision decide_send(std::size_t payload_bytes);

 private:
  double roll();  ///< uniform [0,1) from the seeded stream; mutex held

  mutable std::mutex mutex_;
  NetFaultPlan plan_;
  util::SplitMix64 rng_;
  NetFaultStats stats_;
  bool armed_ = true;
};

/// Channel decorator that injects the shared injector's decisions into one
/// connection.  Faults surface as util::IoError (or as orderly shutdown for
/// recv disconnects) — exactly what real socket failures look like, so
/// server code cannot and must not tell them apart.
class FaultChannel final : public Channel {
 public:
  FaultChannel(Channel& inner, NetFaultInjector& injector)
      : inner_(inner), injector_(injector) {}

  void send_all(const void* data, std::size_t n) override;
  [[nodiscard]] std::size_t recv_some(void* out, std::size_t n) override;
  /// Same decision table as recv_some, minus the blocking-timeout case
  /// (would-block passes through untouched — the event loop interprets it).
  [[nodiscard]] std::ptrdiff_t recv_nonblock(void* out,
                                             std::size_t n) override;
  /// ONE decision over the whole gathered payload, not one per part: the
  /// default per-part fallback would multiply injection rates by the page
  /// count of a response, making every large zero-copy response a
  /// near-certain tear under plans tuned for per-response probabilities.
  void send_gather(std::span<const std::byte> head,
                   std::span<const std::span<const std::byte>> parts) override {
    static_cast<void>(gather(head, parts, /*nonblock=*/false));
  }
  /// The same single decision; a tear sends its prefix without blocking.
  [[nodiscard]] std::size_t send_gather_nonblock(
      std::span<const std::byte> head,
      std::span<const std::span<const std::byte>> parts) override {
    return gather(head, parts, /*nonblock=*/true);
  }
  void close() override { inner_.close(); }
  void shutdown() override { inner_.shutdown(); }
  [[nodiscard]] bool valid() const override { return inner_.valid(); }

 private:
  std::size_t gather(std::span<const std::byte> head,
                     std::span<const std::span<const std::byte>> parts,
                     bool nonblock);

  Channel& inner_;
  NetFaultInjector& injector_;
};

}  // namespace clio::net
