#include "net/socket.hpp"

#include <arpa/inet.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace clio::net {

using util::check;
using util::IoError;

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::send_all(const void* data, std::size_t n) {
  check<IoError>(valid(), "Socket: send on closed socket");
  const auto* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    check<IoError>(r > 0, std::string("Socket: send failed: ") +
                              std::strerror(errno));
    sent += static_cast<std::size_t>(r);
  }
}

void Socket::send_gather(std::span<const std::byte> head,
                         std::span<const std::span<const std::byte>> parts) {
  static_cast<void>(gather(head, parts, 0));
}

std::size_t Socket::send_gather_nonblock(
    std::span<const std::byte> head,
    std::span<const std::span<const std::byte>> parts) {
  return gather(head, parts, MSG_DONTWAIT);
}

std::size_t Socket::gather(std::span<const std::byte> head,
                           std::span<const std::span<const std::byte>> parts,
                           int flags) {
  check<IoError>(valid(), "Socket: send on closed socket");
  std::vector<iovec> iov;
  iov.reserve(parts.size() + 1);
  if (!head.empty()) {
    iov.push_back({const_cast<std::byte*>(head.data()), head.size()});
  }
  for (const auto part : parts) {
    if (!part.empty()) {
      iov.push_back({const_cast<std::byte*>(part.data()), part.size()});
    }
  }
  // Kernels cap one sendmsg at IOV_MAX iovecs; batch and advance across
  // partial sends by trimming the front of the array.
  std::size_t sent = 0;
  std::size_t at = 0;
  while (at < iov.size()) {
    const std::size_t batch =
        std::min<std::size_t>(iov.size() - at, IOV_MAX);
    msghdr msg{};
    msg.msg_iov = iov.data() + at;
    msg.msg_iovlen = batch;
    const ssize_t r = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | flags);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (flags & MSG_DONTWAIT) != 0 &&
        (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // the socket buffer is full: the caller sends the rest
    }
    check<IoError>(r > 0, std::string("Socket: sendmsg failed: ") +
                              std::strerror(errno));
    sent += static_cast<std::size_t>(r);
    std::size_t left = static_cast<std::size_t>(r);
    while (left > 0 && at < iov.size()) {
      if (left >= iov[at].iov_len) {
        left -= iov[at].iov_len;
        ++at;
      } else {
        iov[at].iov_base = static_cast<char*>(iov[at].iov_base) + left;
        iov[at].iov_len -= left;
        left = 0;
      }
    }
  }
  return sent;
}

std::ptrdiff_t Socket::recv_nonblock(void* out, std::size_t n) {
  check<IoError>(valid(), "Socket: recv on closed socket");
  while (true) {
    const ssize_t r = ::recv(fd_, out, n, MSG_DONTWAIT);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return -1;
    check<IoError>(r >= 0, std::string("Socket: recv failed: ") +
                               std::strerror(errno));
    return static_cast<std::ptrdiff_t>(r);
  }
}

std::size_t Socket::recv_some(void* out, std::size_t n) {
  check<IoError>(valid(), "Socket: recv on closed socket");
  while (true) {
    const ssize_t r = ::recv(fd_, out, n, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired: the peer is stalling, not gone.  Typed so the
      // server can answer 408 (mid-request) or close cleanly (idle).
      throw util::TimeoutError("Socket: recv timed out");
    }
    check<IoError>(r >= 0, std::string("Socket: recv failed: ") +
                               std::strerror(errno));
    return static_cast<std::size_t>(r);
  }
}

void shutdown_connection(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void set_recv_timeout(int fd, int timeout_ms) {
  if (fd < 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool try_send_nonblock(int fd, std::string_view data) {
  if (fd < 0) return false;
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t r = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;  // would block or dead peer: give up
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

TcpListener::TcpListener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  check<IoError>(fd >= 0, "TcpListener: socket() failed");
  socket_ = Socket(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  check<IoError>(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 std::string("TcpListener: bind failed: ") +
                     std::strerror(errno));
  // A deep backlog: the 10k mostly-idle soak opens thousands of
  // connections back-to-back, faster than the 20 ms accept poll can be
  // unlucky — the kernel clamps this to net.core.somaxconn anyway.
  check<IoError>(::listen(fd, 1024) == 0, "TcpListener: listen failed");

  socklen_t len = sizeof(addr);
  check<IoError>(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                               &len) == 0,
                 "TcpListener: getsockname failed");
  port_ = ntohs(addr.sin_port);
}

Socket TcpListener::accept(int timeout_ms) {
  check<IoError>(socket_.valid(), "TcpListener: accept on closed listener");
  pollfd pfd{socket_.fd(), POLLIN, 0};
  const int r = ::poll(&pfd, 1, timeout_ms);
  if (r == 0) return Socket{};
  check<IoError>(r > 0, "TcpListener: poll failed");
  const int client = ::accept(socket_.fd(), nullptr, nullptr);
  if (client < 0 && (errno == EAGAIN || errno == ECONNABORTED)) {
    return Socket{};
  }
  check<IoError>(client >= 0, std::string("TcpListener: accept failed: ") +
                                  std::strerror(errno));
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Bound blocked sends: a peer that stops reading (malicious or gone)
  // must not park a server worker in send() forever — after the timeout
  // the send fails with EAGAIN, surfaces as IoError, and the connection
  // is torn down.  This is also what keeps stop() joinable against
  // non-reading clients (its SHUT_RD sweep cannot interrupt a send).
  timeval send_timeout{/*tv_sec=*/5, /*tv_usec=*/0};
  ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  // Mirror it on the receive side: a peer that opens a connection and then
  // stalls mid-request must not park a worker in recv() forever.  The
  // timeout surfaces as util::TimeoutError from recv_some; the server
  // answers 408 or, between requests, treats it as an idle disconnect.
  timeval recv_timeout{/*tv_sec=*/5, /*tv_usec=*/0};
  ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));
  return Socket(client);
}

void TcpListener::close() { socket_.close(); }

Socket connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  check<IoError>(fd >= 0, "connect_loopback: socket() failed");
  Socket socket(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  check<util::ConnectError>(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                                      sizeof(addr)) == 0,
                            std::string("connect_loopback: connect failed: ") +
                                std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

}  // namespace clio::net
