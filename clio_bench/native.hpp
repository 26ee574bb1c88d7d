#pragma once

// Native references: each workload's work done a second time with plain
// POSIX calls, using none of the library's server, file-system or VM code.
// A workload alternates its system and its reference in short turns, and
// its gated metrics divide the system's time by the reference's, so the
// host slowing both for a while (README.md, "Why ratios") moves neither.

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace/format.hpp"

namespace clio::bench::native {

/// Minimal HTTP/1.1 server over a fixed document table: keep-alive, one
/// blocking thread per connection.  `GET /<name>` answers 200 with the
/// document (404 if there is none); a POST copies its body into the next
/// of a ring of slots and answers 201.
class Server {
 public:
  /// Documents by name, without the leading '/'.
  using Docs = std::map<std::string, std::string, std::less<>>;

  explicit Server(Docs docs);
  ~Server();  ///< closes every socket and joins every thread
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Body bytes of completed 200 GET and 201 POST responses.
  [[nodiscard]] std::uint64_t get_body_bytes() const { return get_bytes_; }
  [[nodiscard]] std::uint64_t post_body_bytes() const { return post_bytes_; }

 private:
  static constexpr std::size_t kPostSlots = 64;

  void accept_loop();
  void serve(int fd);

  const Docs docs_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::mutex posts_mutex_;
  std::vector<std::string> post_slots_;  ///< guarded by posts_mutex_
  std::size_t next_slot_ = 0;            ///< guarded by posts_mutex_
  std::atomic<std::uint64_t> get_bytes_{0};
  std::atomic<std::uint64_t> post_bytes_{0};
  // Written by the acceptor thread only; the destructor reads them after
  // joining it.  The threads come last: they use every member above.
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  std::thread acceptor_;
};

/// Blocking keep-alive client for Server: one request at a time, no
/// pipelining.  Throws std::runtime_error when the connection fails.
class Client {
 public:
  explicit Client(std::uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request and returns the response status; the response body
  /// is left in `body`.
  int get(std::string_view path, std::string& body);
  int post(std::string_view path, std::string_view payload, std::string& body);

 private:
  int request(std::string_view head, std::string_view payload,
              std::string& body);

  int fd_ = -1;
  std::string buffer_;  ///< received bytes not yet consumed
};

/// Fills `buffer` from `fd` with read(2) until it is full or the file ends;
/// returns the bytes read.  Throws std::runtime_error on a failed read.
std::size_t read_chunk(int fd, std::span<std::byte> buffer);

/// Reads the file at `path` front to back in chunks of `buffer.size()`
/// bytes and hands every chunk to `consume`; returns the sum of what
/// `consume` returns.
template <typename Consume>
long long scan_file(const std::filesystem::path& path,
                    std::span<std::byte> buffer, Consume&& consume) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + path.string());
  long long total = 0;
  try {
    for (;;) {
      const std::size_t got = read_chunk(fd, buffer);
      if (got == 0) break;
      total += consume(std::span<const std::byte>(buffer.data(), got));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return total;
}

/// One replay of a trace by the native reference.
struct Replay {
  std::vector<double> record_ms;  ///< every record, timed as the replayer does
  std::vector<double> read_ms;    ///< the read records among them
  double wall_s = 0.0;            ///< the whole replay
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// Replays `trace` against `dir/<sample file>` with open, pread, pwrite,
/// lseek and close on file descriptors, following TraceReplayer's
/// semantics record for record: one descriptor per (pid, fid), seeks from
/// the start of the file to the offset, writes of the sample pattern for
/// `seed`.  Throws std::runtime_error when a call fails.
Replay replay(const trace::TraceFile& trace, const std::filesystem::path& dir,
              std::uint64_t seed);

}  // namespace clio::bench::native
