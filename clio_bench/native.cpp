#include "native.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <system_error>

#include "util/fs.hpp"

namespace clio::bench::native {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Writes every byte of `head` and then `body`, with as few writev(2)
/// calls as the socket allows.
void send_all(int fd, std::string_view head, std::string_view body) {
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  iovec* next = iov;
  int count = body.empty() ? 1 : 2;
  while (count > 0) {
    const ssize_t n = ::writev(fd, next, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send");
    }
    auto left = static_cast<std::size_t>(n);
    while (count > 0 && left >= next->iov_len) {
      left -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + left;
      next->iov_len -= left;
    }
  }
}

/// Appends what one recv(2) returns to `buffer`; returns the byte count,
/// 0 when the peer has closed the connection.
std::size_t receive(int fd, std::string& buffer) {
  constexpr std::size_t kChunk = 64 << 10;
  const std::size_t old = buffer.size();
  buffer.resize(old + kChunk);
  ssize_t n = 0;
  do {
    n = ::recv(fd, buffer.data() + old, kChunk, 0);
  } while (n < 0 && errno == EINTR);
  buffer.resize(old + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
  if (n < 0) fail("recv");
  return static_cast<std::size_t>(n);
}

std::size_t content_length(std::string_view head) {
  constexpr std::string_view kField = "\r\nContent-Length: ";
  const std::size_t at = head.find(kField);
  if (at == std::string_view::npos) return 0;
  std::size_t length = 0;
  const char* first = head.data() + at + kField.size();
  std::from_chars(first, head.data() + head.size(), length);
  return length;
}

/// Reads one HTTP message from `fd`: its head (through the blank line)
/// into `head` and its Content-Length body into `body`.  Bytes past the
/// message stay in `buffer`.  Returns false if the peer closed the
/// connection before a message began.
bool read_message(int fd, std::string& buffer, std::string& head,
                  std::string& body) {
  std::size_t end = 0;
  while ((end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (receive(fd, buffer) == 0) {
      if (buffer.empty()) return false;
      throw std::runtime_error("connection closed mid-message");
    }
  }
  end += 4;
  head.assign(buffer, 0, end);
  const std::size_t total = end + content_length(head);
  while (buffer.size() < total) {
    if (receive(fd, buffer) == 0) {
      throw std::runtime_error("connection closed mid-body");
    }
  }
  body.assign(buffer, end, total - end);
  buffer.erase(0, total);
  return true;
}

void respond(int fd, int status, std::string_view reason,
             std::string_view body) {
  const std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                           std::string(reason) + "\r\nContent-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: keep-alive\r\n\r\n";
  send_all(fd, head, body);
}

}  // namespace

Server::Server(Docs docs)
    : docs_(std::move(docs)), post_slots_(kPostSlots) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(listen_fd_, 64) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    ::close(listen_fd_);
    fail("native server listen");
  }
  port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() {
  stopping_ = true;
  ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept()
  acceptor_.join();
  for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  for (auto& t : conn_threads_) t.join();
  for (const int fd : conn_fds_) ::close(fd);
  ::close(listen_fd_);
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (!stopping_ && (errno == EINTR || errno == ECONNABORTED)) continue;
      return;
    }
    set_nodelay(fd);
    try {
      conn_threads_.emplace_back([this, fd] { serve(fd); });
    } catch (const std::system_error&) {
      ::close(fd);  // no thread to serve it: refuse the connection
      continue;
    }
    conn_fds_.push_back(fd);
  }
}

void Server::serve(int fd) {
  std::string buffer, head, body;
  try {
    while (read_message(fd, buffer, head, body)) {
      const std::size_t sp1 = head.find(' ');
      const std::size_t sp2 = head.find(' ', sp1 + 1);
      const std::string_view method(head.data(), sp1);
      std::string_view path(head.data() + sp1 + 1, sp2 - sp1 - 1);
      if (method == "GET") {
        path.remove_prefix(1);
        const auto it = docs_.find(path);
        if (it == docs_.end()) {
          respond(fd, 404, "Not Found", "no such file");
          continue;
        }
        respond(fd, 200, "OK", it->second);
        get_bytes_ += it->second.size();
      } else if (method == "POST") {
        {
          std::lock_guard<std::mutex> lock(posts_mutex_);
          post_slots_[next_slot_].assign(body);
          next_slot_ = (next_slot_ + 1) % kPostSlots;
        }
        respond(fd, 201, "Created", "stored");
        post_bytes_ += body.size();
      } else {
        respond(fd, 400, "Bad Request", "bad request");
      }
    }
  } catch (const std::exception&) {
    // The client went away or the server is stopping: end this connection.
  }
}

Client::Client(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fail("native client connect");
  }
  set_nodelay(fd_);
}

Client::~Client() { ::close(fd_); }

int Client::get(std::string_view path, std::string& body) {
  return request("GET " + std::string(path) +
                     " HTTP/1.1\r\nHost: localhost\r\n\r\n",
                 {}, body);
}

int Client::post(std::string_view path, std::string_view payload,
                 std::string& body) {
  return request("POST " + std::string(path) +
                     " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                     std::to_string(payload.size()) + "\r\n\r\n",
                 payload, body);
}

int Client::request(std::string_view head, std::string_view payload,
                    std::string& body) {
  send_all(fd_, head, payload);
  std::string response_head;
  if (!read_message(fd_, buffer_, response_head, body)) {
    throw std::runtime_error("native server closed the connection");
  }
  // "HTTP/1.1 200 OK"
  int status = 0;
  const std::size_t sp = response_head.find(' ');
  std::from_chars(response_head.data() + sp + 1,
                  response_head.data() + response_head.size(), status);
  return status;
}

std::size_t read_chunk(int fd, std::span<std::byte> buffer) {
  std::size_t got = 0;
  while (got < buffer.size()) {
    const ssize_t n = ::read(fd, buffer.data() + got, buffer.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("read");
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

Replay replay(const trace::TraceFile& trace, const std::filesystem::path& dir,
              std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  Replay out;
  std::size_t records = 0;
  for (const auto& r : trace.records) records += r.count;
  out.record_ms.reserve(records);
  const std::string path = (dir / trace.header.sample_file).string();
  const std::size_t files = trace.header.num_files;
  std::vector<int> fds(
      static_cast<std::size_t>(trace.header.num_processes) * files, -1);
  std::vector<std::byte> buffer;
  buffer.reserve(1 << 20);

  const auto start = Clock::now();
  for (const auto& r : trace.records) {
    int& fd = fds[static_cast<std::size_t>(r.pid) * files + r.fid];
    if (r.op != trace::TraceOp::kOpen && fd < 0) {
      throw std::runtime_error("native replay: I/O before open in trace");
    }
    for (std::uint32_t rep = 0; rep < r.count; ++rep) {
      double ms = 0.0;
      switch (r.op) {
        case trace::TraceOp::kOpen: {
          const auto t = Clock::now();
          if (fd >= 0) ::close(fd);
          fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
          ms = ms_since(t);
          if (fd < 0) fail("open " + path);
          break;
        }
        case trace::TraceOp::kClose: {
          const auto t = Clock::now();
          ::close(fd);
          ms = ms_since(t);
          fd = -1;
          break;
        }
        case trace::TraceOp::kRead: {
          buffer.resize(static_cast<std::size_t>(r.length));
          const auto t = Clock::now();
          std::size_t got = 0;
          while (got < buffer.size()) {
            const ssize_t n =
                ::pread(fd, buffer.data() + got, buffer.size() - got,
                        static_cast<off_t>(r.offset + got));
            if (n < 0 && errno == EINTR) continue;
            if (n < 0) fail("pread");
            if (n == 0) break;
            got += static_cast<std::size_t>(n);
          }
          ms = ms_since(t);
          out.read_ms.push_back(ms);
          out.bytes_read += got;
          break;
        }
        case trace::TraceOp::kWrite: {
          buffer.resize(static_cast<std::size_t>(r.length));
          util::expected_sample_bytes(r.offset, buffer, seed);
          const auto t = Clock::now();
          std::size_t put = 0;
          while (put < buffer.size()) {
            const ssize_t n =
                ::pwrite(fd, buffer.data() + put, buffer.size() - put,
                         static_cast<off_t>(r.offset + put));
            if (n < 0 && errno == EINTR) continue;
            if (n < 0) fail("pwrite");
            put += static_cast<std::size_t>(n);
          }
          ms = ms_since(t);
          out.bytes_written += put;
          break;
        }
        case trace::TraceOp::kSeek: {
          const auto t = Clock::now();
          ::lseek(fd, 0, SEEK_SET);
          ::lseek(fd, static_cast<off_t>(r.offset), SEEK_SET);
          ms = ms_since(t);
          break;
        }
        case trace::TraceOp::kReadv:
        case trace::TraceOp::kWritev:
          break;
      }
      out.record_ms.push_back(ms);
    }
  }
  for (const int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  out.wall_s = ms_since(start) / 1e3;
  return out;
}

}  // namespace clio::bench::native
