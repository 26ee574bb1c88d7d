#pragma once

#include <cstddef>
#include <span>

namespace clio::net {

/// Abstract bidirectional byte channel — the seam the serving layer is
/// written against.  `Socket` is the real TCP implementation; `FaultChannel`
/// decorates any Channel with seeded fault injection (the net-layer mirror
/// of io::FaultStore), so every worker-pool code path can be aimed at
/// deterministically without a flaky peer.
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  virtual ~Channel() = default;

  /// Sends the whole buffer (throws util::IoError on failure).
  virtual void send_all(const void* data, std::size_t n) = 0;

  /// Receives up to n bytes; returns 0 at orderly shutdown.
  [[nodiscard]] virtual std::size_t recv_some(void* out, std::size_t n) = 0;

  virtual void close() = 0;
  [[nodiscard]] virtual bool valid() const = 0;

  /// Breaks the connection without releasing the underlying resource:
  /// further sends fail, receives report orderly shutdown, but the
  /// descriptor (and therefore its number) stays owned until close().
  /// Decorators that sever a connection mid-use must call this, not
  /// close() — the owner may still have the descriptor registered
  /// elsewhere (e.g. the server's active-connection set), and closing
  /// would let the OS reuse the number out from under that bookkeeping.
  virtual void shutdown() { close(); }

  /// Non-blocking receive: > 0 bytes read, 0 orderly shutdown, -1 no data
  /// available right now.  The event loop's read path — it must never park
  /// its thread in recv.  The default forwards to recv_some (correct for
  /// channels whose recv never blocks); Socket issues one MSG_DONTWAIT
  /// recv.
  [[nodiscard]] virtual std::ptrdiff_t recv_nonblock(void* out,
                                                     std::size_t n) {
    return static_cast<std::ptrdiff_t>(recv_some(out, n));
  }

  /// Sends head then each part of the body in order — the zero-copy
  /// response path hands the buffer pool's pages straight to the socket as
  /// one gather, no intermediate body copy.  The default loops send_all;
  /// Socket packs everything into sendmsg iovec batches.  FaultChannel
  /// overrides this with ONE fault decision over the total payload, so a
  /// response torn into N pages keeps per-response (not per-page) injection
  /// rates.
  virtual void send_gather(std::span<const std::byte> head,
                           std::span<const std::span<const std::byte>> parts) {
    if (!head.empty()) send_all(head.data(), head.size());
    for (const auto part : parts) {
      if (!part.empty()) send_all(part.data(), part.size());
    }
  }

  /// send_gather without blocking: returns how many bytes the channel took
  /// (throws util::IoError on failure), so the event loop never parks on a
  /// peer.  The default sends everything (right for channels that never
  /// block); Socket uses MSG_DONTWAIT, and FaultChannel takes its one
  /// decision per payload as in send_gather.
  [[nodiscard]] virtual std::size_t send_gather_nonblock(
      std::span<const std::byte> head,
      std::span<const std::span<const std::byte>> parts) {
    send_gather(head, parts);
    std::size_t total = head.size();
    for (const auto part : parts) total += part.size();
    return total;
  }

  /// Receives exactly n bytes; returns false if the peer closed early.
  [[nodiscard]] bool recv_exact(void* out, std::size_t n) {
    auto* p = static_cast<char*>(out);
    std::size_t got = 0;
    while (got < n) {
      const std::size_t r = recv_some(p + got, n - got);
      if (r == 0) return false;
      got += r;
    }
    return true;
  }

 protected:
  // Sockets are movable; the base carries no state, so moves are trivial.
  Channel(Channel&&) = default;
  Channel& operator=(Channel&&) = default;
};

}  // namespace clio::net
