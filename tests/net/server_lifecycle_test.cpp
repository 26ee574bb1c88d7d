// Lifecycle tests for the worker-pool server: stop() racing in-flight
// responses and idle keep-alive connections, make_cold() racing live
// requests, and queue-full backpressure.  These run under the TSan CI
// label (`net`), so every interleaving they provoke is also a data-race
// probe.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>

#include "io/fault_store.hpp"
#include "io/file_store.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/temp_dir.hpp"

namespace clio::net {
namespace {

class ServerLifecycleTest : public ::testing::Test {
 protected:
  ServerLifecycleTest()
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

TEST_F(ServerLifecycleTest, StopDuringInFlightRequestsJoinsCleanly) {
  ServerOptions options;
  options.worker_threads = 4;
  MiniWebServer server(fs_, options);
  server.start();

  std::atomic<bool> halt{false};
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      HttpClient client(server.port(), /*keep_alive=*/true);
      while (!halt.load()) {
        try {
          if (client.get("/doc.bin").status == 200) {
            ok.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          // stop() tears connections down mid-exchange; that is the test.
        }
      }
    });
  }
  // Let traffic build, then stop mid-flight.  stop() must join the accept
  // loop and every worker even though connections are active and idle
  // keep-alive readers are parked in recv.
  while (ok.load() < 20) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  server.stop();
  EXPECT_FALSE(server.running());
  halt.store(true);
  for (auto& t : clients) t.join();
  EXPECT_GT(ok.load(), 0u);

  // The server restarts cleanly after a mid-flight stop.
  server.start();
  HttpClient after(server.port());
  EXPECT_EQ(after.get("/doc.bin").status, 200);
  server.stop();
}

TEST_F(ServerLifecycleTest, StopUnblocksIdleKeepAliveConnection) {
  MiniWebServer server(fs_, ServerOptions{});
  server.start();
  // Park a worker on an idle keep-alive connection: one request completes,
  // then the client goes silent without closing.
  HttpClient client(server.port(), /*keep_alive=*/true);
  ASSERT_EQ(client.get("/doc.bin").status, 200);
  // stop() must not hang on the worker blocked in recv for request #2.
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ServerLifecycleTest, MakeColdRacesLiveRequests) {
  ServerOptions options;
  options.worker_threads = 4;
  MiniWebServer server(fs_, options);
  server.start();

  std::atomic<bool> halt{false};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      HttpClient client(server.port(), /*keep_alive=*/true);
      while (!halt.load()) {
        try {
          const auto response = client.get("/doc.bin");
          if (response.status != 200) continue;
          if (response.body == content_) {
            ok.fetch_add(1, std::memory_order_relaxed);
          } else {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
        }
      }
    });
  }
  // Hammer make_cold() against the live GET stream: the pool must never
  // serve a torn page and the flush/evict must never trip over a worker's
  // pinned pages (this used to rebuild the pool under live PageGuards).
  for (int i = 0; i < 50; ++i) {
    server.make_cold();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  halt.store(true);
  for (auto& t : clients) t.join();
  server.stop();
  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
}

/// Rig for queue choreography: a FaultStore between the real store and the
/// managed stack whose latency injection can park the single worker inside
/// a storage op for a known duration.  doc.bin is served warm (pool-only,
/// no injected latency); slow.bin stays cold so its first GET pays the
/// injected backing-store stall.
struct SlowStoreRig {
  SlowStoreRig() {
    auto real = std::make_unique<io::RealFileStore>(dir.path());
    auto faulty = std::make_unique<io::FaultStore>(std::move(real));
    fault = faulty.get();
    fs.emplace(std::move(faulty), io::ManagedFsOptions{});
    for (const char* name : {"doc.bin", "slow.bin"}) {
      auto file = fs->open(name, io::OpenMode::kTruncate);
      std::string content(8192, '\0');
      for (std::size_t i = 0; i < content.size(); ++i) {
        content[i] = static_cast<char>('a' + (i * 13) % 26);
      }
      file.write(std::as_bytes(
          std::span<const char>(content.data(), content.size())));
      file.close();
    }
    // The writes above left both files' pages resident: drop them so
    // slow.bin is genuinely cold when the stall plan arms.
    fs->drop_caches();
  }

  /// Blocks until the server's worker has opened one more file than
  /// `opens_before` — the proof that it popped a request off the queue and
  /// is now inside do_get (about to stall on the cold read).
  void wait_for_open(std::uint64_t opens_before) {
    for (int i = 0; i < 5000 &&
                    fs->stats().op_snapshot(io::IoOp::kOpen).count <=
                        opens_before;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(fs->stats().op_snapshot(io::IoOp::kOpen).count, opens_before);
  }

  util::TempDir dir;
  io::FaultStore* fault = nullptr;
  std::optional<io::ManagedFileSystem> fs;
};

/// Every backing data op sleeps this long once the stall plan is armed:
/// long enough that the queue choreography around it (a few loopback
/// round-trips) can never outrun the stalled worker, short enough to keep
/// the test quick.
constexpr std::uint32_t kStallUs = 1'500'000;

TEST_F(ServerLifecycleTest, QueueFullBackpressureReturns503) {
  SlowStoreRig rig;
  ServerOptions options;
  options.worker_threads = 1;
  options.max_pending = 1;
  MiniWebServer server(*rig.fs, options);
  server.start();

  // Warm doc.bin into the pool, then arm the stall: serving doc.bin again
  // never touches the backing store, serving cold slow.bin stalls on it.
  {
    HttpClient warm(server.port());
    ASSERT_EQ(warm.get("/doc.bin").status, 200);
  }
  io::FaultPlan plan;
  plan.latency_prob = 1.0;
  plan.latency_us = kStallUs;
  rig.fault->set_plan(plan);

  // Occupy the only worker deterministically: the cold GET is popped off
  // the queue (leaving it empty again) and stalls in the storage op.
  const auto opens =
      rig.fs->stats().op_snapshot(io::IoOp::kOpen).count;
  Socket busy = connect_loopback(server.port());
  HttpReader busy_reader(busy);
  const std::string slow = "GET /slow.bin HTTP/1.1\r\n\r\n";
  busy.send_all(slow.data(), slow.size());
  rig.wait_for_open(opens);

  // Fill the single queue slot with a second request.
  Socket queued = connect_loopback(server.port());
  const std::string q = "GET /doc.bin HTTP/1.1\r\nConnection: close\r\n\r\n";
  queued.send_all(q.data(), q.size());
  for (int i = 0; i < 2000 && server.stats().requests < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().requests, 2u);

  // A third request must be rejected promptly with 503, not parked — and
  // the rejection must not block the event loop (it goes out best-effort
  // non-blocking).
  Socket rejected = connect_loopback(server.port());
  rejected.send_all(q.data(), q.size());
  const auto response = read_response(rejected);
  EXPECT_EQ(response.status, 503);
  EXPECT_FALSE(response.keep_alive);
  EXPECT_GE(server.stats().rejected_503, 1u);

  // The stall elapses: the in-flight request completes, then the queued
  // one is served.
  EXPECT_EQ(busy_reader.read_response().status, 200);
  EXPECT_EQ(read_response(queued).status, 200);
  server.stop();
}

TEST_F(ServerLifecycleTest, StopAnswersQueuedBacklogWith503) {
  // A request sitting in the pending queue when stop() begins used to be
  // silently dropped — the fd was closed without a byte ever sent.  The
  // drain must answer it with an explicit 503 instead.
  SlowStoreRig rig;
  ServerOptions options;
  options.worker_threads = 1;
  options.max_pending = 4;
  MiniWebServer server(*rig.fs, options);
  server.start();

  {
    HttpClient warm(server.port());
    ASSERT_EQ(warm.get("/doc.bin").status, 200);
  }
  io::FaultPlan plan;
  plan.latency_prob = 1.0;
  plan.latency_us = kStallUs;
  rig.fault->set_plan(plan);

  // Park the only worker inside the cold GET's storage stall.
  const auto opens =
      rig.fs->stats().op_snapshot(io::IoOp::kOpen).count;
  Socket busy = connect_loopback(server.port());
  const std::string slow = "GET /slow.bin HTTP/1.1\r\n\r\n";
  busy.send_all(slow.data(), slow.size());
  rig.wait_for_open(opens);

  // Two further requests land in the queue behind the stalled worker.
  Socket queued_a = connect_loopback(server.port());
  Socket queued_b = connect_loopback(server.port());
  const std::string q = "GET /doc.bin HTTP/1.1\r\nConnection: close\r\n\r\n";
  queued_a.send_all(q.data(), q.size());
  queued_b.send_all(q.data(), q.size());
  for (int i = 0; i < 2000 && server.stats().requests < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().requests, 3u);

  server.stop();

  // Every queued request got a complete, well-formed rejection.
  for (Socket* queued : {&queued_a, &queued_b}) {
    const auto response = read_response(*queued);
    EXPECT_EQ(response.status, 503);
    EXPECT_FALSE(response.keep_alive);
  }
  EXPECT_EQ(server.stats().drained_503, 2u);
  EXPECT_FALSE(server.running());
}

TEST_F(ServerLifecycleTest, ImmediateStopAfterStartNeverHangs) {
  // stop() right after start() lands while workers are still entering
  // their queue wait.  Clearing running_ outside queue_mutex_ let a worker
  // that had just checked its predicate miss the only wake-up, hanging the
  // join; a bounded wait turns such a hang into a failure.  On a 4-CPU
  // Linux host the unfixed server hung in 3 of 10 runs of this test.
  constexpr int kCycles = 250;
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread cycles([this, done = std::move(done)]() mutable {
    ServerOptions options;
    options.worker_threads = 4;
    for (int i = 0; i < kCycles; ++i) {
      MiniWebServer server(fs_, options);
      server.start();
      server.stop();
    }
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    cycles.detach();  // hung in stop(); cannot be joined
    FAIL() << "start/stop cycles did not finish within 60 s";
  }
  cycles.join();
}

TEST_F(ServerLifecycleTest, RestartResetsStatsAndSnapshotsPreviousRun) {
  // Regression: a restarted server used to carry the previous run's
  // counters, so the second run's stats() double-counted.  start() now
  // zeroes the live counters and stop() snapshots the finished run into
  // last_run_stats().
  MiniWebServer server(fs_, ServerOptions{});
  EXPECT_EQ(server.last_run_stats().requests, 0u);  // nothing ran yet

  server.start();
  HttpClient first(server.port(), /*keep_alive=*/true);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(first.get("/doc.bin").status, 200);
  }
  server.stop();
  const ServerStats run1 = server.stats();
  EXPECT_EQ(run1.requests, 3u);
  EXPECT_EQ(run1.get_body_bytes_sent, 3u * content_.size());
  EXPECT_EQ(server.last_run_stats().requests, 3u);

  server.start();
  // The live counters describe the current run only.
  EXPECT_EQ(server.stats().requests, 0u);
  EXPECT_EQ(server.stats().get_body_bytes_sent, 0u);
  EXPECT_TRUE(server.samples().empty());
  // ...while the previous run stays accounted.
  EXPECT_EQ(server.last_run_stats().requests, 3u);

  HttpClient second(server.port());
  ASSERT_EQ(second.get("/doc.bin").status, 200);
  server.stop();
  EXPECT_EQ(server.stats().requests, 1u);
  EXPECT_EQ(server.stats().get_body_bytes_sent, content_.size());
  EXPECT_EQ(server.last_run_stats().requests, 1u);  // snapshot rolled over

  // The metrics registry is deliberately NOT reset across restarts: its
  // counters are cumulative over the server's lifetime, as a Prometheus
  // scraper expects.
  EXPECT_EQ(server.metrics().snapshot().value("clio_server_requests_total"),
            1.0);  // callback reads the live (reset) counter...
  EXPECT_EQ(server.tracer().traces_started(), 4u);  // ...but traces accrue
}

}  // namespace
}  // namespace clio::net
