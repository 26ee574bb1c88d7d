#include "net/server.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "io/file_store.hpp"
#include "net/client.hpp"
#include "net/load_gen.hpp"
#include "util/fs.hpp"
#include "util/temp_dir.hpp"

namespace clio::net {
namespace {

/// The worker records its sample just after responding, so a client that
/// already saw the response may still be ahead of the bookkeeping; spin
/// briefly until `n` samples are visible.
void wait_for_samples(const MiniWebServer& server, std::size_t n) {
  for (int i = 0; i < 1000 && server.samples().size() < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.samples().size(), n);
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest()
      : fs_(std::make_unique<io::RealFileStore>(dir_.path()),
            io::ManagedFsOptions{}) {
    // The paper's three image files: 50607, 7501 and 14063 bytes.
    make_file("large.jpg", 50607);
    make_file("small.jpg", 7501);
    make_file("mid.jpg", 14063);
  }

  void make_file(const std::string& name, std::size_t size) {
    auto file = fs_.open(name, io::OpenMode::kTruncate);
    std::string content(size, 'x');
    for (std::size_t i = 0; i < size; ++i) {
      content[i] = static_cast<char>('a' + (i * 31) % 26);
    }
    file.write(std::as_bytes(
        std::span<const char>(content.data(), content.size())));
    file.close();
  }

  util::TempDir dir_;
  io::ManagedFileSystem fs_;
};

TEST_F(ServerTest, GetReturnsFileContent) {
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port());
  const auto response = client.get("/mid.jpg");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), 14063u);
  EXPECT_EQ(response.body[0], 'a');
  server.stop();
}

TEST_F(ServerTest, GetMissingFileIs404) {
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port());
  EXPECT_EQ(client.get("/absent.jpg").status, 404);
  server.stop();
}

TEST_F(ServerTest, PostCreatesNewUniqueFiles) {
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port());
  const auto a = client.post("/upload", std::string(500, 'p'));
  const auto b = client.post("/upload", std::string(700, 'q'));
  EXPECT_EQ(a.status, 201);
  EXPECT_EQ(b.status, 201);
  EXPECT_NE(a.body, b.body);  // distinct generated names
  EXPECT_TRUE(fs_.exists(a.body));
  EXPECT_TRUE(fs_.exists(b.body));
  // Content landed intact.
  auto file = fs_.open(a.body, io::OpenMode::kRead);
  EXPECT_EQ(file.size(), 500u);
  server.stop();
}

TEST_F(ServerTest, UnsupportedMethodIs405) {
  MiniWebServer server(fs_);
  server.start();
  Socket socket = connect_loopback(server.port());
  const std::string wire = "DELETE /x HTTP/1.0\r\nContent-Length: 0\r\n\r\n";
  socket.send_all(wire.data(), wire.size());
  EXPECT_EQ(read_response(socket).status, 405);
  server.stop();
}

TEST_F(ServerTest, MalformedRequestGets400) {
  MiniWebServer server(fs_);
  server.start();
  Socket socket = connect_loopback(server.port());
  const std::string wire = "NONSENSE\r\n\r\n";
  socket.send_all(wire.data(), wire.size());
  EXPECT_EQ(read_response(socket).status, 400);
  server.stop();
  EXPECT_GE(server.stats().parse_errors, 1u);
}

TEST_F(ServerTest, SamplesRecordFileAndTotalTime) {
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port());
  static_cast<void>(client.get("/small.jpg"));
  static_cast<void>(client.post("/up", "data"));
  server.stop();
  const auto samples = server.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_TRUE(samples[0].is_get);
  EXPECT_EQ(samples[0].bytes, 7501u);
  EXPECT_FALSE(samples[1].is_get);
  EXPECT_EQ(samples[1].bytes, 4u);
  for (const auto& s : samples) {
    EXPECT_GE(s.file_ms, 0.0);
    EXPECT_GE(s.total_ms, s.file_ms);
  }
}

TEST_F(ServerTest, ConcurrentClientsAreServed) {
  MiniWebServer server(fs_);
  server.start();
  const auto result = run_get_load(
      server.port(), {"large.jpg", "small.jpg", "mid.jpg"},
      /*clients=*/4, /*requests_per_client=*/10);
  server.stop();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.latencies_ms.size(), 40u);
  EXPECT_GT(result.bytes_received, 40u * 7501 / 2);
}

TEST_F(ServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port(), /*keep_alive=*/true);
  for (int i = 0; i < 10; ++i) {
    const auto response = client.get("/small.jpg");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body.size(), 7501u);
  }
  client.disconnect();
  // Let the worker notice the close before reading the counters.
  for (int i = 0; i < 1000 && server.stats().connections < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.accepted, 1u);  // one connection carried all ten
  EXPECT_EQ(stats.responses_ok, 10u);
  EXPECT_EQ(stats.get_body_bytes_sent, 10u * 7501u);
}

TEST_F(ServerTest, ConnectionCloseClientGetsOneConnectionPerRequest) {
  MiniWebServer server(fs_);
  server.start();
  // Closing after each response is the client's choice: this client sends
  // `Connection: close`, so the server closes after every response and
  // each GET arrives on a fresh connection.
  HttpClient client(server.port(), /*keep_alive=*/false);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.get("/small.jpg").status, 200);
  }
  server.stop();
  EXPECT_EQ(server.stats().accepted, 4u);
}

TEST_F(ServerTest, PipelinedRequestsAreServedInOrder) {
  MiniWebServer server(fs_);
  server.start();
  Socket socket = connect_loopback(server.port());
  const std::string wire =
      "GET /small.jpg HTTP/1.1\r\n\r\nGET /mid.jpg HTTP/1.1\r\n"
      "Connection: close\r\n\r\n";
  socket.send_all(wire.data(), wire.size());
  HttpReader reader(socket);
  const auto first = reader.read_response();
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body.size(), 7501u);
  EXPECT_TRUE(first.keep_alive);
  const auto second = reader.read_response();
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.body.size(), 14063u);
  EXPECT_FALSE(second.keep_alive);
  server.stop();
}

TEST_F(ServerTest, WorkerPoolServesParallelKeepAliveLoad) {
  ServerOptions options;
  options.worker_threads = 8;
  MiniWebServer server(fs_, options);
  server.start();
  LoadGenOptions load;
  load.connections = 8;
  load.requests_per_connection = 25;
  load.keep_alive = true;
  load.post_fraction = 0.2;
  load.seed = 11;
  load.files = {"large.jpg", "small.jpg", "mid.jpg"};
  const LoadReport report = LoadGenerator(load).run(server.port());
  server.stop();
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.ok, 8u * 25u);
  // The served-byte oracle in miniature: what the clients received in 200
  // bodies is exactly what the server accounted as sent.
  EXPECT_EQ(report.bytes_received, server.stats().get_body_bytes_sent);
  EXPECT_EQ(report.bytes_posted, server.stats().post_body_bytes);
}

TEST_F(ServerTest, RepeatedReadsGetFasterAfterFirst) {
  // Table 6 / Figure 6: first GET of a file is slower than later ones
  // (cold buffer pool; with vm_dispatch also the JIT compile).
  ServerOptions options;
  options.vm_dispatch = true;
  // A deliberately heavy compile cost so the first-request delta dwarfs
  // scheduler noise (the handler is ~70 bytecode bytes -> ~18 ms).
  options.vm_options.jit.compile_ns_per_byte = 250000;
  MiniWebServer server(fs_, options);
  server.start();
  server.make_cold();
  HttpClient client(server.port());
  for (int i = 0; i < 6; ++i) static_cast<void>(client.get("/mid.jpg"));
  server.stop();
  const auto samples = server.samples();
  ASSERT_EQ(samples.size(), 6u);
  // Compare against the median of the warm trials: robust to a single
  // scheduler hiccup on a loaded single-core host.
  std::vector<double> warm;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    warm.push_back(samples[i].file_ms);
  }
  std::sort(warm.begin(), warm.end());
  EXPECT_GT(samples[0].file_ms, warm[warm.size() / 2]);
  // The engine compiled do_get exactly once.
  EXPECT_EQ(server.engine()->jit_stats().compilations, 1u);
}

TEST_F(ServerTest, VmDispatchServesIdenticalContent) {
  ServerOptions options;
  options.vm_dispatch = true;
  options.vm_options.jit.compile_ns_per_byte = 0;
  MiniWebServer server(fs_, options);
  server.start();
  HttpClient client(server.port());
  const auto vm_response = client.get("/small.jpg");
  server.stop();

  MiniWebServer native(fs_);
  native.start();
  HttpClient native_client(native.port());
  const auto native_response = native_client.get("/small.jpg");
  native.stop();

  EXPECT_EQ(vm_response.status, 200);
  EXPECT_EQ(vm_response.body, native_response.body);
}

TEST_F(ServerTest, VmPostRoundTrips) {
  ServerOptions options;
  options.vm_dispatch = true;
  options.vm_options.jit.compile_ns_per_byte = 0;
  MiniWebServer server(fs_, options);
  server.start();
  HttpClient client(server.port());
  const auto response = client.post("/up", "managed write");
  server.stop();
  ASSERT_EQ(response.status, 201);
  auto file = fs_.open(response.body, io::OpenMode::kRead);
  std::string content(13, '\0');
  file.read_exact(std::as_writable_bytes(
      std::span<char>(content.data(), content.size())));
  EXPECT_EQ(content, "managed write");
}

TEST_F(ServerTest, StopIsIdempotentAndRestartable) {
  MiniWebServer server(fs_);
  server.start();
  server.start();  // no-op
  server.stop();
  server.stop();  // no-op
  server.start();
  HttpClient client(server.port());
  EXPECT_EQ(client.get("/small.jpg").status, 200);
  server.stop();
}

TEST_F(ServerTest, MakeColdResetsCaches) {
  // Wall-clock deltas at this scale are noise on a warm OS page cache, so
  // assert the mechanism directly: after make_cold the first GET misses in
  // the buffer pool, the second is served from it.
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port());
  static_cast<void>(client.get("/large.jpg"));
  wait_for_samples(server, 1);
  // Samples are recorded before the send, so the worker may still hold the
  // gather path's page pins here — and pinned pages survive make_cold(),
  // which would leave the "cold" GET warm.  responses_ok increments only
  // after the pins are released; sync on it.
  for (int i = 0; i < 1000 && server.stats().responses_ok < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.make_cold();
  const auto before_cold = fs_.pool().stats();
  static_cast<void>(client.get("/large.jpg"));  // cold again
  wait_for_samples(server, 2);
  const auto after_cold = fs_.pool().stats();
  EXPECT_GT(after_cold.misses + after_cold.prefetches,
            before_cold.misses + before_cold.prefetches);
  static_cast<void>(client.get("/large.jpg"));  // warm
  wait_for_samples(server, 3);
  server.stop();
  const auto after_warm = fs_.pool().stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_GT(after_warm.hits, after_cold.hits);
}

}  // namespace
}  // namespace clio::net
