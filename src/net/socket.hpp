#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/channel.hpp"

namespace clio::net {

/// RAII POSIX socket descriptor; the real-TCP Channel implementation.
class Socket final : public Channel {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() override { close(); }

  [[nodiscard]] bool valid() const override { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close() override;
  /// shutdown(2) both directions; the fd stays open (and reserved).
  void shutdown() override;

  /// Sends the whole buffer (throws IoError on failure).
  void send_all(const void* data, std::size_t n) override;
  /// Receives up to n bytes; returns 0 at orderly shutdown.
  [[nodiscard]] std::size_t recv_some(void* out, std::size_t n) override;
  /// One recv(MSG_DONTWAIT): > 0 bytes, 0 orderly shutdown, -1 would
  /// block.  Works on a blocking descriptor — the event loop never arms
  /// O_NONBLOCK, so in-flight blocking sends keep their SO_SNDTIMEO bound.
  [[nodiscard]] std::ptrdiff_t recv_nonblock(void* out,
                                             std::size_t n) override;
  /// Gathers head + N body parts (e.g. pinned buffer-pool pages) into
  /// sendmsg(2) iovec batches — the zero-copy response path.
  void send_gather(std::span<const std::byte> head,
                   std::span<const std::span<const std::byte>> parts) override;
  /// The same gather with MSG_DONTWAIT, stopping when the socket buffer is
  /// full.  Works on a blocking descriptor, like recv_nonblock.
  [[nodiscard]] std::size_t send_gather_nonblock(
      std::span<const std::byte> head,
      std::span<const std::span<const std::byte>> parts) override;

 private:
  /// sendmsg batches with MSG_NOSIGNAL | `flags`; returns the bytes sent,
  /// short only when a MSG_DONTWAIT call would block.
  std::size_t gather(std::span<const std::byte> head,
                     std::span<const std::span<const std::byte>> parts,
                     int flags);

  int fd_ = -1;
};

/// Full SHUT_RDWR on a descriptor owned elsewhere: both directions stop,
/// in-flight sends are abandoned.  stop()'s escalation path for
/// connections that blew through the drain deadline.
void shutdown_connection(int fd);

/// (Re)arms SO_RCVTIMEO on a descriptor owned elsewhere: a recv blocked
/// longer than timeout_ms fails with EAGAIN, which Socket::recv_some
/// surfaces as util::TimeoutError.  timeout_ms = 0 disables the timeout.
/// The server uses this to give idle keep-alive connections a tighter
/// budget than the in-request read timeout.
void set_recv_timeout(int fd, int timeout_ms);

/// Best-effort bounded send on a descriptor owned elsewhere: every byte
/// goes out MSG_DONTWAIT, and the first would-block or error abandons the
/// attempt (returns false).  The event loop's control responses (the
/// queue-full 503, 400, 408) use this — a peer that stopped reading must
/// cost the loop nothing, and a fresh or idle connection's socket buffer
/// always has room for a small response.
bool try_send_nonblock(int fd, std::string_view data);

/// Loopback TCP listener.  Binding port 0 picks an ephemeral port,
/// retrievable via port() — tests and benches never collide.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port);
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool listening() const { return socket_.valid(); }

  /// Blocks up to timeout_ms for a connection; returns an invalid Socket on
  /// timeout.  Throws IoError if the listener broke.
  [[nodiscard]] Socket accept(int timeout_ms);

  void close();

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:port.
[[nodiscard]] Socket connect_loopback(std::uint16_t port);

}  // namespace clio::net
