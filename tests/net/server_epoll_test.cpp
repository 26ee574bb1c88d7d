// Event-loop tests for the readiness-driven server: connection-vs-thread
// economics (thousands of idle keep-alive connections on a tiny worker
// pool), stop() drain with a deadline and no fd leaks, pipelined bursts
// vs the idle timeout, the connection cap's best-effort 503 against a
// non-reading client, and the zero-copy response tiers (hot cache,
// page gather, sendfile) staying byte-identical.  These run under the
// TSan CI label (`net`).
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

TEST_F(ServerEpollTest, HotCacheHitsAreByteIdenticalAndPostInvalidates) {
  ServerOptions options;
  options.hot_cache_entries = 4;
  MiniWebServer server(fs_, options);
  server.start();

  HttpClient client(server.port(), /*keep_alive=*/true);
  // Miss fills, hit serves from memory — byte-identical both ways.  The
  // fill happens after the response is on the wire, so wait for it before
  // asking for the hit.
  ASSERT_EQ(client.get("/doc.bin").status, 200);
  for (int i = 0; i < 2000 && server.hot_cache_stats().insertions < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto hit = client.get("/doc.bin");
  EXPECT_EQ(hit.status, 200);
  EXPECT_EQ(hit.body, content_);
  // The counter, too, moves only once the response has left.
  for (int i = 0; i < 2000 && server.stats().cache_responses < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().cache_responses, 1u);
  const auto warm = server.hot_cache_stats();
  EXPECT_GE(warm.hits, 1u);
  EXPECT_GE(warm.insertions, 1u);

  // Any POST invalidates the whole cache (writers pick random names, so
  // per-key invalidation cannot be trusted): the next GET misses, refills
  // and still serves the exact bytes.
  EXPECT_EQ(client.post("/upload", "fresh-bytes").status, 201);
  EXPECT_GE(server.hot_cache_stats().invalidations, 1u);
  const auto refill = client.get("/doc.bin");
  EXPECT_EQ(refill.status, 200);
  EXPECT_EQ(refill.body, content_);
  // The fill happens after the response is on the wire, so give the worker
  // a beat to reach it before asserting.
  for (int i = 0; i < 2000 &&
                  server.hot_cache_stats().insertions < warm.insertions + 1;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.hot_cache_stats().insertions, warm.insertions + 1);
  server.stop();
}

TEST_F(ServerEpollTest, ZeroCopyTiersStayByteIdentical) {
  // Page-gather tier: default options (sendfile floor far above the file).
  {
    MiniWebServer server(fs_, ServerOptions{});
    server.start();
    HttpClient client(server.port());
    const auto response = client.get("/doc.bin");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, content_);
    // The tier counter ticks after the bytes are on the wire; give the
    // worker a beat to reach it.
    for (int i = 0; i < 2000 && server.stats().gather_responses < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(server.stats().gather_responses, 1u);
    server.stop();
  }
  // Sendfile tier: drop the floor below the file size; the store is a
  // bare RealFileStore, so the kernel path is eligible.
  {
    ServerOptions options;
    options.sendfile_min_bytes = 1024;
    MiniWebServer server(fs_, options);
    server.start();
    HttpClient client(server.port());
    const auto response = client.get("/doc.bin");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, content_);
    for (int i = 0; i < 2000 && server.stats().sendfile_responses < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(server.stats().sendfile_responses, 1u);
    server.stop();
  }
}

}  // namespace
}  // namespace clio::net
