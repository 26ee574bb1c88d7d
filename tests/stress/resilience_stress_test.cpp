// Chaos soak for the end-to-end resilience layer: a seeded LoadGenerator
// mix runs against a server whose storage path is a FaultStore burst
// (clean EIOs, short reads, latency spikes) wrapped by the RetryingStore
// and circuit breaker, then the faults recover.  The availability SLO
// under fire:
//
//  - every request receives a well-formed answer: storage chaos degrades
//    service to 503s, it never tears connections or emits malformed
//    responses (the failure breakdown must stay empty);
//  - the service recovers after the burst: once the injector is disarmed
//    and the breaker's cooldown has elapsed, a clean load run completes
//    with zero errors and a fresh byte-exact read of every file;
//  - no worker wedges: the soak and the final stop() complete at all —
//    client-side receive timeouts turn a wedged worker into a counted
//    failure instead of a hung test.
//
// Every failure message prints the reproducing CLIO_STRESS_SEED; the CI
// stress-soak job sweeps 10 distinct seeds under ASan.
//
// Environment knobs (all optional):
//   CLIO_STRESS_SEED  — run only this seed
//   CLIO_STRESS_OPS   — requests per load connection (default 250)
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "io/fault_store.hpp"
#include "io/file_store.hpp"
#include "io/retrying_store.hpp"
#include "net/client.hpp"
#include "net/fault_channel.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "util/resilience.hpp"
#include "util/temp_dir.hpp"

namespace clio::net {
namespace {

std::vector<std::uint64_t> seeds_under_test() {
  if (const char* env = std::getenv("CLIO_STRESS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {31, 32, 33};
}

std::uint64_t requests_per_connection() {
  if (const char* env = std::getenv("CLIO_STRESS_OPS")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 250;
}

/// The burst: heavy transient failure on every data op plus short reads
/// and latency spikes.  Deliberately no torn writes and no disk-full —
/// those are permanent answers, and this soak measures how the retry and
/// degradation machinery absorbs *transient* infrastructure sickness.
io::FaultPlan burst_plan(std::uint64_t seed) {
  io::FaultPlan plan;
  plan.seed = seed;
  plan.fail_prob[static_cast<std::size_t>(io::FaultOp::kRead)] = 0.30;
  plan.fail_prob[static_cast<std::size_t>(io::FaultOp::kReadv)] = 0.30;
  plan.fail_prob[static_cast<std::size_t>(io::FaultOp::kWrite)] = 0.20;
  plan.fail_prob[static_cast<std::size_t>(io::FaultOp::kWritev)] = 0.20;
  plan.short_read_prob = 0.10;
  plan.latency_prob = 0.05;
  plan.latency_us = 200;
  return plan;
}

void expect_only_graceful_failures(const LoadReport& report,
                                   std::uint64_t seed, const char* phase) {
  const std::string tag = std::string(phase) + " seed " +
                          std::to_string(seed) +
                          "  (reproduce with CLIO_STRESS_SEED=" +
                          std::to_string(seed) + ")";
  // The SLO: storage chaos may degrade requests to 503, but every request
  // still gets a complete, well-formed HTTP answer on a live connection.
  EXPECT_EQ(report.errors, 0u) << tag;
  EXPECT_EQ(report.failures.total(), 0u) << tag;
  EXPECT_EQ(report.failures.malformed, 0u) << tag;
  EXPECT_EQ(report.failures.disconnects, 0u) << tag;
  EXPECT_EQ(report.failures.timeouts, 0u) << tag;
}

TEST(ResilienceStress, StorageFaultBurstDegradesGracefullyAndRecovers) {
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string seed_hint =
        "  (reproduce with CLIO_STRESS_SEED=" + std::to_string(seed) + ")";
    util::TempDir dir("clio-resilience");

    // The full production chain:
    //   RealFileStore <- FaultStore <- RetryingStore(+breaker) <- fs.
    auto real = std::make_unique<io::RealFileStore>(dir.path(),
                                                    /*idle_fd_cache=*/128);
    auto faulty = std::make_unique<io::FaultStore>(std::move(real));
    io::FaultStore* fault = faulty.get();
    fault->arm(false);  // publish the file zoo fault-free

    util::CircuitBreakerConfig breaker_cfg;
    breaker_cfg.failure_threshold = 8;
    breaker_cfg.open_cooldown_ms = 100;
    breaker_cfg.half_open_successes = 2;
    util::CircuitBreaker breaker(breaker_cfg);

    io::RetryPolicy policy;
    policy.seed = seed;
    policy.backoff.max_retries = 3;
    policy.backoff.base_delay_us = 50;
    policy.backoff.max_delay_us = 2000;

    auto retrying = std::make_unique<io::RetryingStore>(std::move(faulty),
                                                        policy, &breaker);
    io::RetryingStore* retry = retrying.get();

    // A pool far smaller than the working set, so GETs keep missing into
    // the faulty store instead of soaking in cache.
    io::ManagedFsOptions fs_options;
    fs_options.pool_pages = 64;  // 256 KiB vs a ~600 KiB file zoo
    io::ManagedFileSystem fs(std::move(retrying), fs_options);
    retry->bind_stats(&fs.stats());

    std::map<std::string, std::string> docs;
    const std::size_t sizes[] = {4000, 17000, 52021, 130007, 240001, 160000};
    std::vector<std::string> names;
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      const std::string name = "doc" + std::to_string(i) + ".bin";
      std::string content(sizes[i], '\0');
      for (std::size_t b = 0; b < content.size(); ++b) {
        content[b] = static_cast<char>('a' + (b * 29 + i * 5) % 26);
      }
      auto file = fs.open(name, io::OpenMode::kTruncate);
      file.write(std::as_bytes(
          std::span<const char>(content.data(), content.size())));
      file.close();
      names.push_back(name);
      docs.emplace(name, std::move(content));
    }

    ServerOptions options;
    options.worker_threads = 4;
    options.breaker = &breaker;
    options.request_deadline_ms = 2000;
    MiniWebServer server(fs, options);
    server.start();

    LoadGenOptions load;
    load.connections = 6;
    load.requests_per_connection = requests_per_connection();
    load.keep_alive = true;
    load.post_fraction = 0.2;
    load.post_bytes = 3000;
    load.seed = seed;
    load.files = names;
    // Liveness: a wedged worker surfaces as a counted client timeout
    // instead of hanging the soak.
    load.recv_timeout_ms = 30'000;

    // Phase 1 — the burst.  Service degrades (503s are fine, and with the
    // breaker tripping they are expected); it must not fail ungracefully.
    fault->set_plan(burst_plan(seed));
    fault->arm(true);
    const LoadReport burst = LoadGenerator(load).run(server.port());
    expect_only_graceful_failures(burst, seed, "burst");
    EXPECT_EQ(burst.ok + burst.rejected_503, burst.requests_sent)
        << "burst seed " << seed << seed_hint;
    EXPECT_GT(burst.ok, 0u) << "burst seed " << seed << seed_hint;
    // The storm must have actually exercised the machinery under test.
    EXPECT_GT(fault->stats().total_faults(), 0u) << seed_hint;
    EXPECT_GT(retry->stats().retries, 0u) << seed_hint;
    EXPECT_GT(retry->stats().absorbed, 0u) << seed_hint;

    // The observability surface answers while service is degraded: /statz
    // straight after the burst, while the breaker is still settling.  Its
    // body goes to stdout so degraded mode is observable in CI soak logs.
    {
      HttpClient statz_client(server.port());
      const auto statz = statz_client.get("/statz");
      EXPECT_EQ(statz.status, 200) << seed_hint;
      EXPECT_NE(statz.body.find("\"breaker\""), std::string::npos)
          << seed_hint;
      EXPECT_NE(statz.body.find("\"stages\""), std::string::npos)
          << seed_hint;
      std::cout << "post-burst /statz (seed " << seed << "):\n"
                << statz.body << "\n";
    }

    // Phase 2 — recovery.  Faults off; wait out the breaker (half-open
    // probes need a few clean storage calls to close it again).
    fault->arm(false);
    bool recovered = false;
    HttpClient probe(server.port(), /*keep_alive=*/true);
    for (int i = 0; i < 200 && !recovered; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      try {
        // The probe must reach the store (a cache hit would skip the
        // breaker's half-open probe and never close it).  Inside the try:
        // flushing pages left dirty by burst-phase 503s fast-fails while
        // the breaker is still open.
        fs.drop_caches();
        recovered = probe.get("/" + names[0]).status == 200 &&
                    breaker.state() == util::CircuitBreaker::State::kClosed;
      } catch (const std::exception&) {
      }
    }
    probe.disconnect();
    EXPECT_TRUE(recovered)
        << "service did not recover after the burst, seed " << seed
        << seed_hint;

    // Post-burst SLO: a clean load run completes with zero errors and
    // zero 503s — yesterday's storm must leave no residue.
    const LoadReport clean = LoadGenerator(load).run(server.port());
    expect_only_graceful_failures(clean, seed, "recovery");
    EXPECT_EQ(clean.ok, clean.requests_sent)
        << "recovery seed " << seed << seed_hint;

    // Byte-exact drain: every file reads back exactly, through the server.
    HttpClient fresh(server.port(), /*keep_alive=*/true);
    for (const auto& [name, content] : docs) {
      const auto response = fresh.get("/" + name);
      EXPECT_EQ(response.status, 200)
          << "drain GET /" << name << " seed " << seed << seed_hint;
      EXPECT_TRUE(response.body == content)
          << "drain GET /" << name << " not byte-exact, seed " << seed
          << seed_hint;
    }
    fresh.disconnect();

    // stop() joining everything — after a soak that tripped the breaker,
    // parked workers in retry backoff and 503'd half the load — is the
    // no-wedged-workers assertion.
    server.stop();

    // Span accounting balances across the whole soak: every span opened
    // by any request — absorbed, degraded, retried or drained — closed.
    EXPECT_EQ(server.tracer().spans_opened(), server.tracer().spans_closed())
        << seed_hint;
    EXPECT_GT(server.tracer().traces_started(), 0u) << seed_hint;
    ASSERT_NO_THROW(fs.pool().debug_validate()) << seed_hint;

    const ServerStats stats = server.stats();
    EXPECT_GT(stats.requests, 0u) << seed_hint;
    // Degraded-mode answers happened (the burst was strong enough to trip
    // or exhaust something) and the counters kept the books.
    EXPECT_GT(stats.degraded_503 + stats.rejected_503, 0u) << seed_hint;
    EXPECT_EQ(fs.stats().resilience().retries, retry->stats().retries)
        << seed_hint;
  }
}

TEST(ResilienceStress, DualLayerBurstStaysDiagnosableAndRecovers) {
  // Both injectors at once: the storage burst (absorbed or degraded to
  // 503 by the retry/breaker chain) plus socket-layer faults (which DO
  // fail requests — a severed connection cannot carry an answer).  The
  // SLO shifts accordingly: every failure must be *classified* (the
  // breakdown accounts for each error, nothing lands in `other`), the
  // service must keep making progress through the storm, and once both
  // injectors disarm a clean run must return to zero errors.
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string seed_hint =
        "  (reproduce with CLIO_STRESS_SEED=" + std::to_string(seed) + ")";
    util::TempDir dir("clio-resilience2");

    auto real = std::make_unique<io::RealFileStore>(dir.path(),
                                                    /*idle_fd_cache=*/128);
    auto faulty = std::make_unique<io::FaultStore>(std::move(real));
    io::FaultStore* fault = faulty.get();
    fault->arm(false);

    util::CircuitBreakerConfig breaker_cfg;
    breaker_cfg.failure_threshold = 8;
    breaker_cfg.open_cooldown_ms = 100;
    util::CircuitBreaker breaker(breaker_cfg);

    io::RetryPolicy policy;
    policy.seed = seed;
    policy.backoff.max_retries = 3;
    policy.backoff.base_delay_us = 50;
    policy.backoff.max_delay_us = 2000;
    auto retrying = std::make_unique<io::RetryingStore>(std::move(faulty),
                                                        policy, &breaker);

    io::ManagedFsOptions fs_options;
    fs_options.pool_pages = 64;
    io::ManagedFileSystem fs(std::move(retrying), fs_options);

    std::vector<std::string> names;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::string name = "doc" + std::to_string(i) + ".bin";
      std::string content(20000 + i * 60000, '\0');
      for (std::size_t b = 0; b < content.size(); ++b) {
        content[b] = static_cast<char>('a' + (b * 29 + i * 5) % 26);
      }
      auto file = fs.open(name, io::OpenMode::kTruncate);
      file.write(std::as_bytes(
          std::span<const char>(content.data(), content.size())));
      file.close();
      names.push_back(name);
    }

    NetFaultPlan net_plan;
    net_plan.seed = seed ^ 0xfeedu;
    net_plan.accept_drop_prob = 0.02;
    net_plan.recv_fail_prob = 0.02;
    net_plan.recv_disconnect_prob = 0.02;
    net_plan.send_fail_prob = 0.02;
    net_plan.short_send_prob = 0.02;
    NetFaultInjector injector(net_plan);
    injector.arm(false);

    ServerOptions options;
    options.worker_threads = 4;
    options.breaker = &breaker;
    options.request_deadline_ms = 2000;
    options.fault_injector = &injector;
    MiniWebServer server(fs, options);
    server.start();

    LoadGenOptions load;
    load.connections = 6;
    load.requests_per_connection = requests_per_connection();
    load.keep_alive = true;
    load.seed = seed;
    load.files = names;
    load.recv_timeout_ms = 30'000;

    fault->set_plan(burst_plan(seed));
    fault->arm(true);
    injector.arm(true);
    const LoadReport burst = LoadGenerator(load).run(server.port());
    // Progress through the storm, and every error accounted for by class.
    EXPECT_GT(burst.ok, 0u) << "dual burst seed " << seed << seed_hint;
    EXPECT_EQ(burst.failures.total(), burst.errors)
        << "dual burst seed " << seed << seed_hint;
    EXPECT_EQ(burst.failures.other, 0u)
        << "dual burst seed " << seed << seed_hint;
    EXPECT_GT(fault->stats().total_faults() + injector.stats().total_faults(),
              0u)
        << seed_hint;

    // Recovery: both injectors off, breaker allowed to close.
    fault->arm(false);
    injector.arm(false);
    bool recovered = false;
    HttpClient probe(server.port(), /*keep_alive=*/true);
    for (int i = 0; i < 200 && !recovered; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      try {
        fs.drop_caches();
        recovered = probe.get("/" + names[0]).status == 200 &&
                    breaker.state() == util::CircuitBreaker::State::kClosed;
      } catch (const std::exception&) {
      }
    }
    probe.disconnect();
    EXPECT_TRUE(recovered) << "dual-layer recovery failed, seed " << seed
                           << seed_hint;

    const LoadReport clean = LoadGenerator(load).run(server.port());
    expect_only_graceful_failures(clean, seed, "dual recovery");
    EXPECT_EQ(clean.ok, clean.requests_sent)
        << "dual recovery seed " << seed << seed_hint;

    server.stop();
    ASSERT_NO_THROW(fs.pool().debug_validate()) << seed_hint;
    // Even with connections severed mid-request by the net injector, RAII
    // unwinding must close every span it opened.
    EXPECT_EQ(server.tracer().spans_opened(), server.tracer().spans_closed())
        << seed_hint;
  }
}

}  // namespace
}  // namespace clio::net
