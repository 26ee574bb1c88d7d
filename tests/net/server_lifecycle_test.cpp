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
/// no injected latency, so the event loop serves it itself); slow.bin and
/// cold0..cold1.bin stay cold, so each GET of them goes to the worker
/// queue and, once the stall plan is armed, pays the injected stall.
struct SlowStoreRig {
  SlowStoreRig() {
    auto real = std::make_unique<io::RealFileStore>(dir.path());
    auto faulty = std::make_unique<io::FaultStore>(std::move(real));
    fault = faulty.get();
    fs.emplace(std::move(faulty), io::ManagedFsOptions{});
    for (const char* name : {"doc.bin", "slow.bin", "cold0.bin", "cold1.bin"}) {
      auto file = fs->open(name, io::OpenMode::kTruncate);
      std::string content(8192, '\0');
      for (std::size_t i = 0; i < content.size(); ++i) {
        content[i] = static_cast<char>('a' + (i * 13) % 26);
      }
      file.write(std::as_bytes(
          std::span<const char>(content.data(), content.size())));
      file.close();
    }
    // The writes above left the files' pages resident: drop them so the
    // cold files are genuinely cold when the stall plan arms.
    fs->drop_caches();
  }

  /// Arms the stall: every backing data op from here on sleeps `us`.
  void arm_stall(std::uint32_t us) {
    io::FaultPlan plan;
    plan.latency_prob = 1.0;
    plan.latency_us = us;
    fault->set_plan(plan);
  }

  /// Blocks until a storage op has begun one more injected stall than
  /// `stalls_before` — the proof that the worker popped a cold GET off the
  /// queue and is now stalled inside its read.
  void wait_for_stall(std::uint64_t stalls_before) {
    for (int i = 0;
         i < 5000 && fault->stats().latency_injections <= stalls_before;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(fault->stats().latency_injections, stalls_before);
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

/// Sends `wire` on a fresh connection and returns it.
Socket send_on_new_connection(std::uint16_t port, const std::string& wire) {
  Socket socket = connect_loopback(port);
  socket.send_all(wire.data(), wire.size());
  return socket;
}

TEST_F(ServerLifecycleTest, QueueFullBackpressureReturns503) {
  SlowStoreRig rig;
  ServerOptions options;
  options.worker_threads = 1;
  options.max_pending = 1;
  MiniWebServer server(*rig.fs, options);
  server.start();

  // Occupy the only worker deterministically: the cold GET is popped off
  // the queue (leaving it empty again) and stalls in the storage op.
  rig.arm_stall(kStallUs);
  const auto stalls = rig.fault->stats().latency_injections;
  Socket busy = connect_loopback(server.port());
  HttpReader busy_reader(busy);
  const std::string slow = "GET /slow.bin HTTP/1.1\r\n\r\n";
  busy.send_all(slow.data(), slow.size());
  rig.wait_for_stall(stalls);

  // Fill the single queue slot with a second request.  It must be one
  // that queues: a warm GET would be served by the event loop itself.
  Socket queued = send_on_new_connection(
      server.port(), "GET /cold0.bin HTTP/1.1\r\nConnection: close\r\n\r\n");
  for (int i = 0; i < 2000 && server.stats().requests < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().requests, 2u);

  // A third request must be rejected promptly with 503, not parked — and
  // the rejection must not block the event loop (it goes out best-effort
  // non-blocking).
  Socket rejected = send_on_new_connection(
      server.port(), "GET /cold1.bin HTTP/1.1\r\nConnection: close\r\n\r\n");
  const auto response = read_response(rejected);
  EXPECT_EQ(response.status, 503);
  EXPECT_FALSE(response.keep_alive);
  EXPECT_GE(server.stats().rejected_503, 1u);

  // The stall elapses: the in-flight request completes, then the queued
  // one is served (without a stall of its own: the plan is disarmed).
  rig.fault->set_plan(io::FaultPlan{});
  EXPECT_EQ(busy_reader.read_response().status, 200);
  EXPECT_EQ(read_response(queued).status, 200);
  server.stop();
}

TEST_F(ServerLifecycleTest, WarmGetIsAnsweredWhileTheOnlyWorkerStalls) {
  // A GET whose pages are all resident needs no storage wait, so the event
  // loop serves it itself instead of queueing it behind a stalled worker.
  SlowStoreRig rig;
  ServerOptions options;
  options.worker_threads = 1;
  MiniWebServer server(*rig.fs, options);
  server.start();
  {
    HttpClient warm(server.port());
    ASSERT_EQ(warm.get("/doc.bin").status, 200);  // cold: a worker loads it
  }
  const std::uint64_t loop_before = server.stats().loop_served;

  rig.arm_stall(kStallUs);
  const auto stalls = rig.fault->stats().latency_injections;
  Socket busy = send_on_new_connection(
      server.port(), "GET /slow.bin HTTP/1.1\r\nConnection: close\r\n\r\n");
  rig.wait_for_stall(stalls);

  const auto t0 = std::chrono::steady_clock::now();
  HttpClient client(server.port());
  const auto response = client.get("/doc.bin");
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), 8192u);
  EXPECT_LT(waited, std::chrono::microseconds(kStallUs) / 2);
  EXPECT_EQ(server.stats().loop_served, loop_before + 1);

  EXPECT_EQ(read_response(busy).status, 200);  // the stalled GET finishes
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

  // Park the only worker inside the cold GET's storage stall.
  rig.arm_stall(kStallUs);
  const auto stalls = rig.fault->stats().latency_injections;
  Socket busy = send_on_new_connection(server.port(),
                                       "GET /slow.bin HTTP/1.1\r\n\r\n");
  rig.wait_for_stall(stalls);

  // Two further requests land in the queue behind the stalled worker:
  // cold GETs, which the event loop does not serve itself.
  Socket queued_a = send_on_new_connection(
      server.port(), "GET /cold0.bin HTTP/1.1\r\nConnection: close\r\n\r\n");
  Socket queued_b = send_on_new_connection(
      server.port(), "GET /cold1.bin HTTP/1.1\r\nConnection: close\r\n\r\n");
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
