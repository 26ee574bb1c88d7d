// Event-loop tests for the readiness-driven server: connection-vs-thread
// economics (thousands of idle keep-alive connections on a tiny worker
// pool), stop() drain with a deadline and no fd leaks, pipelined bursts
// vs the idle timeout, the connection cap's best-effort 503 against a
// non-reading client, and the two GET send paths (page gather, buffered)
// staying byte-identical.  These run under the TSan CI label (`net`).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "io/file_store.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"
#include "util/temp_dir.hpp"

namespace clio::net {
namespace {

/// Open fds in this process right now — the leak oracle.  Every fd the
/// server owns (listener, epoll set, eventfd, every connection) must be
/// gone after stop(), so the count returns to its pre-start baseline.
std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

class ServerEpollTest : public ::testing::Test {
 protected:
  ServerEpollTest()
      : fs_(std::make_unique<io::RealFileStore>(dir_.path()),
            io::ManagedFsOptions{}) {
    auto file = fs_.open("doc.bin", io::OpenMode::kTruncate);
    content_.resize(20000);
    for (std::size_t i = 0; i < content_.size(); ++i) {
      content_[i] = static_cast<char>('a' + (i * 13) % 26);
    }
    file.write(std::as_bytes(
        std::span<const char>(content_.data(), content_.size())));
    file.close();
  }

  util::TempDir dir_;
  io::ManagedFileSystem fs_;
  std::string content_;
};

TEST_F(ServerEpollTest, HundredsOfIdleConnectionsDrainWithinDeadline) {
  // The C10K point of the event loop: parked keep-alive connections cost
  // an fd each, not a thread each.  With 2 workers, 400 live connections
  // would deadlock a thread-per-connection design outright.
  const std::size_t kConns = 400;
  const std::size_t fds_before = open_fd_count();
  ServerOptions options;
  options.worker_threads = 2;
  options.drain_deadline_ms = 1000;
  MiniWebServer server(fs_, options);
  server.start();

  std::vector<Socket> parked;
  parked.reserve(kConns);
  const std::string wire =
      "GET /doc.bin HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
  for (std::size_t i = 0; i < kConns; ++i) {
    Socket s = connect_loopback(server.port());
    s.send_all(wire.data(), wire.size());
    const auto response = read_response(s);
    ASSERT_EQ(response.status, 200);
    ASSERT_EQ(response.body, content_);
    parked.push_back(std::move(s));  // idle from here on
  }
  EXPECT_EQ(server.stats().requests, kConns);

  // Fresh traffic still flows with every parked connection held open.
  {
    HttpClient fresh(server.port());
    EXPECT_EQ(fresh.get("/doc.bin").status, 200);
  }

  // stop() closes every parked connection and returns inside the drain
  // deadline (plus scheduling slack) — it never waits on idle peers.
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_FALSE(server.running());
  EXPECT_LT(stop_ms, 1000 + 2000);

  // Fd accounting: once the client ends are gone too, the process is back
  // to its baseline — nothing (connection fds, epoll set, eventfd,
  // listener) leaked across the whole start/serve/stop cycle.
  parked.clear();
  EXPECT_LE(open_fd_count(), fds_before + 4);
}

TEST_F(ServerEpollTest, PipelinedBurstIsNeverIdleTimedOut) {
  // Regression (arm/disarm bug): requests pipelined into one segment used
  // to sit complete in the reader's buffer while the idle timer — armed
  // as if the connection were parked — 408'd them.  Buffered complete
  // requests must all be answered, however tight the idle timeout.
  ServerOptions options;
  options.worker_threads = 2;
  options.idle_timeout_ms = 100;
  MiniWebServer server(fs_, options);
  server.start();

  const std::string one =
      "GET /doc.bin HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
  std::string burst;
  for (int i = 0; i < 5; ++i) burst += one;

  Socket socket = connect_loopback(server.port());
  socket.send_all(burst.data(), burst.size());
  HttpReader reader(socket);
  for (int i = 0; i < 5; ++i) {
    const auto response = reader.read_response();
    EXPECT_EQ(response.status, 200) << "pipelined request " << i;
    EXPECT_EQ(response.body, content_);
  }
  EXPECT_EQ(server.stats().requests, 5u);
  EXPECT_EQ(server.stats().timeouts_408, 0u);

  // Once the burst is drained the connection really is idle: aging out is
  // a clean close (EOF at the client, surfacing as an empty-response parse
  // error), never a 408.
  EXPECT_THROW((void)reader.read_response(), util::ParseError);
  server.stop();
  EXPECT_EQ(server.stats().timeouts_408, 0u);
  EXPECT_EQ(server.stats().parse_errors, 0u);
}

TEST_F(ServerEpollTest, ConnectionCapRejectsWithoutWedgingTheLoop) {
  // Regression (accept-path blocking send): the over-cap 503 goes out
  // best-effort non-blocking, so a client that never reads — the case
  // that used to park the accept path in send() — cannot stall serving.
  ServerOptions options;
  options.worker_threads = 2;
  options.max_connections = 1;
  MiniWebServer server(fs_, options);
  server.start();

  Socket holder = connect_loopback(server.port());
  const std::string wire =
      "GET /doc.bin HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
  holder.send_all(wire.data(), wire.size());
  ASSERT_EQ(read_response(holder).status, 200);

  // Over-cap connections that never read a byte: the server must shed
  // them (best-effort 503 + close) without blocking the event loop.
  std::vector<Socket> silent;
  for (int i = 0; i < 8; ++i) {
    silent.push_back(connect_loopback(server.port()));
  }
  for (int i = 0; i < 2000 && server.stats().rejected_503 < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().rejected_503, 8u);

  // The loop is alive: the admitted connection keeps being served.
  holder.send_all(wire.data(), wire.size());
  EXPECT_EQ(read_response(holder).status, 200);

  // A shed connection that does eventually read finds the well-formed
  // rejection (sent while its socket buffer was empty, so best-effort
  // always lands here).
  const auto rejected = read_response(silent.front());
  EXPECT_EQ(rejected.status, 503);
  EXPECT_FALSE(rejected.keep_alive);
  server.stop();
}

/// One GET on a fresh connection that asks to close, read to EOF: the
/// exact bytes the server put on the wire for that response.
std::string raw_get(std::uint16_t port, const std::string& path) {
  Socket socket = connect_loopback(port);
  const std::string wire =
      "GET " + path + " HTTP/1.1\r\nConnection: close\r\n\r\n";
  socket.send_all(wire.data(), wire.size());
  std::string out;
  char buf[16384];
  while (const std::size_t n = socket.recv_some(buf, sizeof(buf))) {
    out.append(buf, n);
  }
  return out;
}

TEST(ServerSendPaths, EverySizeIsByteIdenticalOnBothPaths) {
  // Differential test of the GET send paths: the same files served
  // natively (page gather up to the pin cap, buffered above it and for
  // empty files) and under vm_dispatch (always buffered).  Each response
  // is read raw to EOF, so a body one byte long or short cannot hide
  // behind Content-Length, and both modes must put identical bytes on
  // the wire.
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kWorkers = 2;
  io::ManagedFsOptions fs_options;
  fs_options.page_size = kPage;
  fs_options.pool_pages = 64;
  util::TempDir dir;
  io::ManagedFileSystem fs(std::make_unique<io::RealFileStore>(dir.path()),
                           fs_options);
  const std::size_t cap =
      MiniWebServer::gather_cap_pages(fs.pool().capacity_pages(), kWorkers);
  ASSERT_GE(cap, 2u);
  const std::vector<std::size_t> sizes = {
      0, 1, kPage - 1, kPage, kPage + 1, cap * kPage, cap * kPage + 1};
  std::vector<std::string> contents;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::string content(sizes[i], '\0');
    for (std::size_t b = 0; b < content.size(); ++b) {
      content[b] = static_cast<char>(1 + (b * 31 + i * 7 + b / kPage) % 250);
    }
    auto file = fs.open("size" + std::to_string(i) + ".bin",
                        io::OpenMode::kTruncate);
    file.write(std::as_bytes(
        std::span<const char>(content.data(), content.size())));
    file.close();
    contents.push_back(std::move(content));
  }

  std::vector<std::string> native_wire;
  for (const bool vm_dispatch : {false, true}) {
    SCOPED_TRACE(vm_dispatch ? "vm_dispatch" : "native");
    ServerOptions options;
    options.worker_threads = kWorkers;
    options.vm_dispatch = vm_dispatch;
    options.vm_options.jit.compile_ns_per_byte = 0;
    MiniWebServer server(fs, options);
    server.start();
    std::uint64_t body_bytes = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      SCOPED_TRACE("size " + std::to_string(sizes[i]));
      const ServerStats before = server.stats();
      const std::string wire =
          raw_get(server.port(), "/size" + std::to_string(i) + ".bin");
      const std::size_t head_end = wire.find("\r\n\r\n");
      ASSERT_NE(head_end, std::string::npos);
      EXPECT_EQ(wire.rfind("HTTP/1.1 200 ", 0), 0u);
      const std::string body = wire.substr(head_end + 4);
      ASSERT_EQ(body.size(), contents[i].size());
      EXPECT_TRUE(body == contents[i]);
      body_bytes += sizes[i];
      if (vm_dispatch) {
        EXPECT_TRUE(wire == native_wire[i]);
      } else {
        native_wire.push_back(wire);
      }
      // Counters tick after the bytes are on the wire, gather first.
      for (int w = 0; w < 2000 && server.stats().responses_ok <
                                      before.responses_ok + 1;
           ++w) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const bool gathered = !vm_dispatch && sizes[i] > 0 &&
                            sizes[i] <= cap * kPage;
      EXPECT_EQ(server.stats().gather_responses - before.gather_responses,
                gathered ? 1u : 0u);
    }
    EXPECT_EQ(server.stats().get_body_bytes_sent, body_bytes);
    server.stop();
  }
}

}  // namespace
}  // namespace clio::net
