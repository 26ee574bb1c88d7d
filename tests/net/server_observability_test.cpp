// The serving layer's observability surface: /metrics (Prometheus text)
// and /statz (JSON snapshot) answering live — including while the storage
// breaker has the server in degraded mode — without perturbing the
// served-byte oracle, plus span accounting balancing once traffic
// quiesces and the shared-registry aggregation option.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "io/file_store.hpp"
#include "net/client.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "util/resilience.hpp"
#include "util/temp_dir.hpp"

namespace clio::net {
namespace {

class ServerObservabilityTest : public ::testing::Test {
 protected:
  ServerObservabilityTest()
      : fs_(std::make_unique<io::RealFileStore>(dir_.path()),
            io::ManagedFsOptions{}) {
    auto file = fs_.open("doc.bin", io::OpenMode::kTruncate);
    std::string content(4096, 'd');
    file.write(std::as_bytes(
        std::span<const char>(content.data(), content.size())));
    file.close();
  }

  util::TempDir dir_;
  io::ManagedFileSystem fs_;
};

void expect_contains(const std::string& haystack, const std::string& needle) {
  EXPECT_NE(haystack.find(needle), std::string::npos)
      << "missing \"" << needle << "\" in:\n"
      << haystack.substr(0, 2000);
}

TEST_F(ServerObservabilityTest, MetricsEndpointServesPrometheusText) {
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port(), /*keep_alive=*/true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.get("/doc.bin").status, 200);
  }
  const auto response = client.get("/metrics");
  server.stop();
  EXPECT_EQ(response.status, 200);
  const std::string& text = response.body;
  expect_contains(text, "# TYPE clio_server_requests_total counter");
  expect_contains(text, "# TYPE clio_pool_occupancy_ratio gauge");
  expect_contains(text, "# TYPE clio_request_stage_handler_ns histogram");
  expect_contains(text, "clio_request_stage_handler_ns_count 3");
  expect_contains(text, "clio_request_stage_queue_wait_ns_bucket{le=");
  expect_contains(text, "clio_io_read_bytes_total");
  // The three file GETs were already counted when the scrape rendered.
  expect_contains(text, "clio_server_responses_ok_total 3");
}

TEST_F(ServerObservabilityTest, StatzServesJsonSnapshot) {
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port(), /*keep_alive=*/true);
  EXPECT_EQ(client.get("/doc.bin").status, 200);
  const auto response = client.get("/statz");
  server.stop();
  EXPECT_EQ(response.status, 200);
  const std::string& json = response.body;
  EXPECT_EQ(json.front(), '{');
  expect_contains(json, "\"running\": true");
  expect_contains(json, "\"server\"");
  expect_contains(json, "\"last_run\"");
  expect_contains(json, "\"pool\"");
  expect_contains(json, "\"occupancy\"");
  // No breaker armed: the key is present but explicitly null.
  expect_contains(json, "\"breaker\": null");
  expect_contains(json, "\"io\"");
  expect_contains(json, "\"stages\"");
  expect_contains(json, "\"queue_wait\"");
  expect_contains(json, "\"storage_op\"");
  expect_contains(json, "\"traces\"");
  expect_contains(json, "\"spans_opened\"");
}

TEST_F(ServerObservabilityTest, LargeBufferedGetShowsItsDirectReads) {
  // An 80-page file is above the page-gather cap, so its GET reads it in
  // one 80-page ManagedFile::read, which goes around the pool: one direct
  // backing read delivers every (cold) page.
  {
    auto file = fs_.open("big.bin", io::OpenMode::kTruncate);
    const std::string content(80 * 4096, 'b');
    file.write(std::as_bytes(
        std::span<const char>(content.data(), content.size())));
  }
  fs_.drop_caches();
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port(), /*keep_alive=*/true);
  EXPECT_EQ(client.get("/big.bin").body.size(), 80 * 4096u);
  const auto metrics = client.get("/metrics");
  const auto statz = client.get("/statz");
  server.stop();
  expect_contains(metrics.body, "# TYPE clio_pool_direct_reads_total counter");
  expect_contains(metrics.body, "clio_pool_direct_reads_total 1\n");
  expect_contains(metrics.body, "clio_pool_direct_read_pages_total 80\n");
  expect_contains(statz.body, "\"direct_read_calls\": 1,");
  expect_contains(statz.body, "\"direct_read_pages\": 80");
  EXPECT_EQ(fs_.pool().resident_pages(), 0u);
}

TEST_F(ServerObservabilityTest, LargePostShowsItsDirectWrite) {
  // An 80-page POST body is one ManagedFile::write of 64 pages or more,
  // which goes around the pool: one store write, no frame left behind.
  const std::size_t resident = fs_.pool().resident_pages();
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port(), /*keep_alive=*/true);
  EXPECT_EQ(client.post("/upload", std::string(80 * 4096, 'p')).status, 201);
  const auto metrics = client.get("/metrics");
  const auto statz = client.get("/statz");
  server.stop();
  expect_contains(metrics.body, "# TYPE clio_pool_direct_writes_total counter");
  expect_contains(metrics.body, "clio_pool_direct_writes_total 1\n");
  expect_contains(metrics.body, "clio_pool_direct_write_pages_total 80\n");
  expect_contains(statz.body, "\"direct_write_calls\": 1,");
  expect_contains(statz.body, "\"direct_write_pages\": 80");
  EXPECT_EQ(fs_.pool().resident_pages(), resident);
}

TEST_F(ServerObservabilityTest, GatheredGetCountsEachPageOnce) {
  // An 8-page file is under the page-gather cap, so its GET pins every
  // page.  Cold, each page is one miss (no hit, no prefetch); warm, each
  // is one hit.  The pool counters feed /statz, /metrics and the
  // benchmark's hit ratio.
  constexpr std::uint64_t kPages = 8;
  {
    auto file = fs_.open("eight.bin", io::OpenMode::kTruncate);
    const std::string content(kPages * 4096, 'e');
    file.write(std::as_bytes(
        std::span<const char>(content.data(), content.size())));
  }
  fs_.drop_caches();
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port(), /*keep_alive=*/true);
  const io::PoolStats cold_before = fs_.pool().stats();
  EXPECT_EQ(client.get("/eight.bin").body.size(), kPages * 4096);
  const io::PoolStats cold = fs_.pool().stats();
  EXPECT_EQ(client.get("/eight.bin").body.size(), kPages * 4096);
  const io::PoolStats warm = fs_.pool().stats();
  server.stop();
  EXPECT_EQ(cold.misses - cold_before.misses, kPages);
  EXPECT_EQ(cold.hits - cold_before.hits, 0u);
  EXPECT_EQ(cold.prefetches - cold_before.prefetches, 0u);
  EXPECT_EQ(warm.hits - cold.hits, kPages);
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.prefetches, cold.prefetches);
}

TEST_F(ServerObservabilityTest, IntrospectionDoesNotPerturbServedByteOracle) {
  MiniWebServer server(fs_);
  server.start();
  HttpClient client(server.port(), /*keep_alive=*/true);
  EXPECT_EQ(client.get("/doc.bin").status, 200);
  EXPECT_EQ(client.get("/metrics").status, 200);
  EXPECT_EQ(client.get("/statz").status, 200);
  EXPECT_EQ(client.get("/healthz").status, 200);
  server.stop();
  const ServerStats stats = server.stats();
  // Scrapes are 2xx responses but never count as served file bytes.
  EXPECT_EQ(stats.get_body_bytes_sent, 4096u);
  EXPECT_EQ(stats.responses_ok, 4u);
  EXPECT_EQ(stats.requests, 4u);
}

TEST_F(ServerObservabilityTest, EndpointsAnswerWhileBreakerOpen) {
  util::CircuitBreaker breaker;
  ServerOptions options;
  options.breaker = &breaker;
  MiniWebServer server(fs_, options);
  server.start();
  while (breaker.state() != util::CircuitBreaker::State::kOpen) {
    if (breaker.try_acquire()) static_cast<void>(breaker.record_failure());
  }
  HttpClient client(server.port(), /*keep_alive=*/true);
  // File traffic is being 503'd...
  EXPECT_EQ(client.get("/doc.bin").status, 503);
  // ...but the diagnostic surface stays answerable.
  const auto metrics = client.get("/metrics");
  EXPECT_EQ(metrics.status, 200);
  expect_contains(metrics.body, "clio_breaker_state");
  const auto statz = client.get("/statz");
  EXPECT_EQ(statz.status, 200);
  expect_contains(statz.body, "\"state\": \"open\"");
  expect_contains(statz.body, "\"retry_after_ms\"");
  server.stop();
  EXPECT_GE(server.stats().degraded_503, 1u);
}

TEST_F(ServerObservabilityTest, SpanAccountingBalancesAfterLoad) {
  ServerOptions options;
  options.worker_threads = 4;
  MiniWebServer server(fs_, options);
  server.start();
  LoadGenOptions load;
  load.connections = 4;
  load.requests_per_connection = 20;
  load.keep_alive = true;
  load.post_fraction = 0.25;
  load.seed = 7;
  load.files = {"doc.bin"};
  const LoadReport report = LoadGenerator(load).run(server.port());
  server.stop();
  EXPECT_EQ(report.errors, 0u);
  const obs::RequestTracer& tracer = server.tracer();
  EXPECT_EQ(tracer.traces_started(), 4u * 20u);
  EXPECT_GT(tracer.spans_opened(), 0u);
  EXPECT_EQ(tracer.spans_opened(), tracer.spans_closed());
  // Every stage timer saw samples (accept/queue-wait are recorded out of
  // band; parse/handler/storage/send ride the ambient trace).
  const obs::MetricsSnapshot snap = server.metrics().snapshot();
  for (const char* stage :
       {"accept", "queue_wait", "parse", "handler", "storage_op", "send"}) {
    const auto* dist = snap.distribution(
        "clio_request_stage_" + std::string(stage) + "_ns");
    ASSERT_NE(dist, nullptr) << stage;
    EXPECT_GT(dist->hist.count, 0u) << stage;
  }
}

TEST_F(ServerObservabilityTest, TraceIdsAreDeterministicAcrossRuns) {
  // Every server seeds its tracer with the same constant, so the ID
  // sequence is fixed (pinned directly on the tracer, since IDs are not
  // exposed per response).
  MiniWebServer a(fs_);
  MiniWebServer b(fs_);
  // Both tracers mint identical sequences before any traffic runs.
  std::vector<std::uint64_t> ids_a, ids_b;
  for (int i = 0; i < 8; ++i) {
    ids_a.push_back(const_cast<obs::RequestTracer&>(a.tracer())
                        .next_trace_id());
    ids_b.push_back(const_cast<obs::RequestTracer&>(b.tracer())
                        .next_trace_id());
  }
  EXPECT_EQ(ids_a, ids_b);
}

TEST_F(ServerObservabilityTest, SharedRegistryAggregates) {
  obs::MetricsRegistry shared;
  ServerOptions options;
  options.metrics = &shared;
  MiniWebServer server(fs_, options);
  EXPECT_EQ(&server.metrics(), &shared);
  server.start();
  HttpClient client(server.port());
  EXPECT_EQ(client.get("/doc.bin").status, 200);
  server.stop();
  EXPECT_EQ(shared.snapshot().value("clio_server_requests_total"), 1.0);
  // The server's callback metrics deregister on destruction, freeing the
  // names for a successor publishing into the same registry.
}

TEST_F(ServerObservabilityTest, CallbacksDeregisterOnDestruction) {
  obs::MetricsRegistry shared;
  {
    ServerOptions options;
    options.metrics = &shared;
    MiniWebServer server(fs_, options);
    EXPECT_TRUE(shared.snapshot()
                    .value("clio_server_requests_total")
                    .has_value());
  }
  EXPECT_FALSE(shared.snapshot()
                   .value("clio_server_requests_total")
                   .has_value());
  // A second server can now publish into the same registry without a
  // name collision.
  ServerOptions options;
  options.metrics = &shared;
  MiniWebServer successor(fs_, options);
  EXPECT_TRUE(shared.snapshot()
                  .value("clio_server_requests_total")
                  .has_value());
}

}  // namespace
}  // namespace clio::net
