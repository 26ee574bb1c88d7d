// Event-loop tests for the readiness-driven server: connection-vs-thread
// economics (thousands of idle keep-alive connections on a tiny worker
// pool), stop() drain with a deadline and no fd leaks, pipelined bursts
// vs the idle timeout, the connection cap's best-effort 503 against a
// non-reading client, a loop-served response the socket cannot take
// whole (its tail goes to a worker, or closes at stop()), a cold GET
// declined before the loop opens it, a pipelining client yielding the loop
// to others, and the GET send paths (loop and worker page gather,
// buffered) staying byte-identical.  These run under the TSan CI label
// (`net`).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/file_store.hpp"
#include "io/store_decorator.hpp"
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

/// Everything `socket` receives until EOF.
std::string read_to_eof(Socket& socket) {
  std::string out;
  char buf[16384];
  while (const std::size_t n = socket.recv_some(buf, sizeof(buf))) {
    out.append(buf, n);
  }
  return out;
}

/// One GET on a fresh connection that asks to close, read to EOF: the
/// exact bytes the server put on the wire for that response.
std::string raw_get(std::uint16_t port, const std::string& path) {
  Socket socket = connect_loopback(port);
  const std::string wire =
      "GET " + path + " HTTP/1.1\r\nConnection: close\r\n\r\n";
  socket.send_all(wire.data(), wire.size());
  return read_to_eof(socket);
}

/// Pipelined GETs of big.bin that one non-reading client sends at once:
/// 24 responses of 256 KiB are more than a loopback socket buffers (at
/// most 4 MiB by default), so the loop's send of one of them comes up
/// short.
constexpr int kPipelined = 24;

/// A loopback connection whose receive buffer is shrunk before connecting
/// (so the window it advertises is small too), which sends kPipelined GETs
/// of `path`, the last asking to close, and then reads nothing.
Socket non_reading_client(std::uint16_t port, const std::string& path) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  const int rcvbuf = 2048;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string wire;
  for (int i = 0; i < kPipelined; ++i) {
    wire += "GET " + path + " HTTP/1.1\r\nConnection: " +
            (i + 1 < kPipelined ? "keep-alive" : "close") + "\r\n\r\n";
  }
  socket.send_all(wire.data(), wire.size());
  return socket;
}

/// Polls `stats` until `done` holds (up to 2 s); returns whether it did.
template <typename Done>
bool wait_until(const MiniWebServer& server, Done done) {
  for (int i = 0; i < 2000 && !done(server.stats()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done(server.stats());
}

class ServerTailTest : public ServerEpollTest {
 protected:
  ServerTailTest() {
    // The largest file the page-gather path takes with one worker: 64
    // pages.  A write that long goes around the pool, so the file starts
    // cold; warm() loads it.
    big_.resize(64 * 4096);
    for (std::size_t i = 0; i < big_.size(); ++i) {
      big_[i] = static_cast<char>(1 + (i * 7 + i / 4096) % 250);
    }
    auto file = fs_.open("big.bin", io::OpenMode::kTruncate);
    file.write(std::as_bytes(std::span<const char>(big_.data(), big_.size())));
    file.close();
    for (int i = 0; i < kPipelined; ++i) {
      expected_ += "HTTP/1.1 200 OK\r\nContent-Length: " +
                   std::to_string(big_.size()) +
                   "\r\nContent-Type: application/octet-stream\r\n"
                   "Connection: " +
                   (i + 1 < kPipelined ? "keep-alive" : "close") +
                   "\r\n\r\n" + big_;
    }
  }

  /// GETs big.bin once, which a worker serves, loading every page.
  void warm(const MiniWebServer& server) {
    const std::string wire = raw_get(server.port(), "/big.bin");
    const std::size_t head_end = wire.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    EXPECT_TRUE(wire.substr(head_end + 4) == big_);
    EXPECT_EQ(server.stats().loop_served, 0u);
  }

  std::string big_;
  std::string expected_;  ///< what a non_reading_client must receive
};

TEST_F(ServerTailTest, ShortSendGoesToAWorkerWhileTheLoopServesOthers) {
  // The loop sends without blocking.  What the non-reading client's socket
  // does not take becomes a tail that the only worker sends on the
  // blocking path (then it serves the rest of the pipeline), while the
  // loop goes on answering other connections.
  ServerOptions options;
  options.worker_threads = 1;
  MiniWebServer server(fs_, options);
  server.start();
  warm(server);

  Socket slow = non_reading_client(server.port(), "/big.bin");
  EXPECT_TRUE(wait_until(server, [](const ServerStats& s) {
    return s.loop_tails == 1;
  }));
  // Whole responses count at once; the one with the tail once it has left.
  const ServerStats at_tail = server.stats();
  EXPECT_GE(at_tail.loop_served, 2u);
  EXPECT_EQ(at_tail.responses_ok, at_tail.loop_served);

  // The worker is blocked on the slow client; the loop is not.  A loop
  // blocked on the slow client would leave this recv to time out.
  Socket other = connect_loopback(server.port());
  set_recv_timeout(other.fd(), 2000);
  const std::string wire =
      "GET /doc.bin HTTP/1.1\r\nConnection: close\r\n\r\n";
  other.send_all(wire.data(), wire.size());
  const auto response = read_response(other);
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(response.body == content_);
  EXPECT_EQ(server.stats().loop_served, at_tail.loop_served + 1);

  EXPECT_TRUE(read_to_eof(slow) == expected_);
  ASSERT_TRUE(wait_until(server, [](const ServerStats& s) {
    return s.responses_ok == 2 + kPipelined;
  }));
  EXPECT_EQ(server.stats().get_body_bytes_sent,
            (1 + kPipelined) * big_.size() + content_.size());
  EXPECT_EQ(server.stats().gather_responses, 2u + kPipelined);
  server.stop();
  EXPECT_EQ(server.stats().loop_tails, 1u);
  EXPECT_EQ(server.stats().io_errors, 0u);
  ASSERT_NO_THROW(fs_.pool().debug_validate());
}

TEST_F(ServerTailTest, StopClosesAQueuedTailWithoutA503) {
  // Two non-reading clients each leave a tail: the only worker blocks on
  // the first, the second waits in the queue.  stop() must close the
  // queued tail's connection as it is: its client has part of a body, and
  // a 503 appended to it would read as more body.
  ServerOptions options;
  options.worker_threads = 1;
  options.drain_deadline_ms = 200;
  MiniWebServer server(fs_, options);
  server.start();
  warm(server);
  Socket first = non_reading_client(server.port(), "/big.bin");
  ASSERT_TRUE(wait_until(server, [](const ServerStats& s) {
    return s.loop_tails == 1;
  }));
  Socket second = non_reading_client(server.port(), "/big.bin");
  ASSERT_TRUE(wait_until(server, [](const ServerStats& s) {
    return s.loop_tails == 2;
  }));

  const ServerStats before_stop = server.stats();
  server.stop();
  EXPECT_EQ(server.stats().drained_503, 0u);
  EXPECT_EQ(server.stats().responses_ok, before_stop.responses_ok);
  for (Socket* client : {&second, &first}) {
    // A prefix of the pipeline's responses, then EOF: nothing appended.
    const std::string got = read_to_eof(*client);
    EXPECT_GT(got.size(), 0u);
    EXPECT_LT(got.size(), expected_.size());
    EXPECT_EQ(expected_.compare(0, got.size(), got), 0);
  }
}

TEST_F(ServerEpollTest, ColdGetIsDeclinedBeforeTheLoopOpensIt) {
  // The loop declines a GET whose first page is not resident before it
  // opens the file, so a cold GET costs one open (the worker's), not an
  // extra open and close on the loop.  Once the worker has loaded the
  // pages, the loop serves the next GET itself.
  ServerOptions options;
  options.worker_threads = 1;
  MiniWebServer server(fs_, options);
  server.start();
  fs_.drop_caches();
  fs_.stats().reset();
  const auto get_doc = [&] {
    const std::string wire = raw_get(server.port(), "/doc.bin");
    const std::size_t head_end = wire.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    EXPECT_TRUE(wire.substr(head_end + 4) == content_);
  };
  get_doc();
  EXPECT_EQ(fs_.stats().op_snapshot(io::IoOp::kOpen).count, 1u);
  EXPECT_EQ(server.stats().loop_served, 0u);
  get_doc();
  EXPECT_EQ(server.stats().loop_served, 1u);
  EXPECT_EQ(fs_.stats().op_snapshot(io::IoOp::kOpen).count, 2u);
  server.stop();
}

/// Holds the next open of one file name on a latch.  A warm GET opens its
/// file on the event loop, so this stops the loop mid-request while a test
/// queues bytes on other connections.
class OpenGate final : public io::StoreDecorator {
 public:
  OpenGate(std::unique_ptr<io::BackingStore> inner, std::string name)
      : StoreDecorator(std::move(inner)), name_(std::move(name)) {}

  io::FileId open(const std::string& name, bool create) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (armed_ && name == name_) {
        armed_ = false;
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    return StoreDecorator::open(name, create);
  }

  void arm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
  }
  void wait_until_held() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return held_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const std::string name_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
  bool released_ = false;
};

TEST(ServerLoopBudget, PipelinedBurstYieldsTheLoopToOtherConnections) {
  // One connection pipelines 64 warm GETs and another sends one GET, both
  // while the loop is held in a third connection's GET, so both are
  // readable, the burst first, when the loop next waits.  The loop serves
  // a bounded number of one connection's requests per wake, so the single
  // GET is served (its sample recorded) before the burst's last request.
  // Samples are recorded before each response is sent, in the order the
  // loop serves.
  constexpr int kBurst = 64;
  util::TempDir dir;
  auto gate_store = std::make_unique<OpenGate>(
      std::make_unique<io::RealFileStore>(dir.path()), "gate.bin");
  OpenGate& gate = *gate_store;
  io::ManagedFileSystem fs(std::move(gate_store));
  const std::string small(100, 's');
  const std::string other(200, 'o');
  const std::string gated(300, 'g');
  for (const auto& [name, content] :
       {std::pair{"small.bin", &small}, std::pair{"other.bin", &other},
        std::pair{"gate.bin", &gated}}) {
    auto file = fs.open(name, io::OpenMode::kTruncate);
    file.write(std::as_bytes(std::span(content->data(), content->size())));
  }
  ServerOptions options;
  options.worker_threads = 1;
  MiniWebServer server(fs, options);
  server.start();
  const auto get = [](const std::string& name) {
    return "GET /" + name + " HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
  };
  // One round trip on each connection first, so the loop has admitted
  // both before the burst.
  Socket burst = connect_loopback(server.port());
  Socket single = connect_loopback(server.port());
  HttpReader burst_reader(burst);
  HttpReader single_reader(single);
  burst.send_all(get("small.bin").data(), get("small.bin").size());
  EXPECT_EQ(burst_reader.read_response().body, small);
  single.send_all(get("other.bin").data(), get("other.bin").size());
  EXPECT_EQ(single_reader.read_response().body, other);
  server.clear_samples();

  gate.arm();
  Socket holder = connect_loopback(server.port());
  holder.send_all(get("gate.bin").data(), get("gate.bin").size());
  gate.wait_until_held();
  std::string wire;
  for (int i = 0; i < kBurst; ++i) wire += get("small.bin");
  burst.send_all(wire.data(), wire.size());
  single.send_all(get("other.bin").data(), get("other.bin").size());
  gate.release();
  HttpReader holder_reader(holder);
  EXPECT_EQ(holder_reader.read_response().body, gated);
  EXPECT_EQ(single_reader.read_response().body, other);
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(burst_reader.read_response().body, small) << i;
  }
  const std::vector<RequestSample> samples = server.samples();
  ASSERT_EQ(samples.size(), kBurst + 2u);
  const auto single_at = std::find_if(
      samples.begin(), samples.end(),
      [&](const RequestSample& s) { return s.bytes == other.size(); });
  ASSERT_NE(single_at, samples.end());
  EXPECT_GT(std::count_if(single_at, samples.end(),
                          [&](const RequestSample& s) {
                            return s.bytes == small.size();
                          }),
            0)
      << "the single GET was served after the whole burst";
  EXPECT_EQ(server.stats().loop_served, kBurst + 4u);
  server.stop();
}

TEST(ServerSendPaths, EverySizeIsByteIdenticalOnBothPaths) {
  // Differential test of the GET send paths: the same files served
  // natively from a cold pool (a worker loads and page-gathers up to the
  // pin cap, buffers above it and for empty files), natively again from
  // the warm pool (the event loop page-gathers what a worker gathered),
  // and under vm_dispatch (always buffered, on a worker).  Each response
  // is read raw to EOF, so a body one byte long or short cannot hide
  // behind Content-Length, and every pass must put identical bytes on the
  // wire.
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

  std::vector<std::string> first_wire;
  for (const std::string pass : {"cold", "warm", "vm_dispatch"}) {
    SCOPED_TRACE(pass);
    const bool vm_dispatch = pass == "vm_dispatch";
    if (pass == "cold") fs.drop_caches();
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
      if (pass == "cold") {
        first_wire.push_back(wire);
      } else {
        EXPECT_TRUE(wire == first_wire[i]);
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
      // Only a warm page-gather GET is the loop's to serve.
      EXPECT_EQ(server.stats().loop_served - before.loop_served,
                gathered && pass == "warm" ? 1u : 0u);
    }
    EXPECT_EQ(server.stats().get_body_bytes_sent, body_bytes);
    server.stop();
  }
}

}  // namespace
}  // namespace clio::net
