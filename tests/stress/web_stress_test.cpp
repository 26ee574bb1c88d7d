// Seeded request-mix soak for the worker-pool serving layer: a
// multi-threaded GET/POST mix driven over a server whose every connection
// runs through a FaultChannel (accept drops, recv/send EIO, orderly
// disconnects, short sends = mid-response truncation, slow-client latency).
// The PR 3 harness idiom at the socket layer:
//
//  - byte-exact oracle under fire: every 200 GET body must equal the known
//    file content exactly; every 201 POST is recorded and re-read after the
//    drain — a torn response or a torn stored body is an immediate failure.
//  - served-byte/demand accounting: the bytes the clients received in
//    complete 200 responses must equal the bytes the server accounted as
//    sent (counted only after a full send), and likewise for POST bodies.
//  - clean drain: after the storm the injector is disarmed and a fresh
//    client must read every file byte-exact.
//
// Every failure message prints the reproducing CLIO_STRESS_SEED; the CI
// stress-soak job sweeps 10 distinct seeds under ASan.
//
// Environment knobs (all optional):
//   CLIO_STRESS_SEED  — run only this seed
//   CLIO_STRESS_OPS   — requests per client thread (default 250)
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "io/file_store.hpp"
#include "net/client.hpp"
#include "net/fault_channel.hpp"
#include "net/http.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace clio::net {
namespace {

std::vector<std::uint64_t> seeds_under_test() {
  if (const char* env = std::getenv("CLIO_STRESS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {21, 22, 23};
}

/// Open fds in this process right now — the soak's leak oracle.
std::size_t count_open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

std::uint64_t requests_per_client() {
  if (const char* env = std::getenv("CLIO_STRESS_OPS")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 250;
}

NetFaultPlan storm_plan(std::uint64_t seed) {
  NetFaultPlan plan;
  plan.seed = seed;
  plan.accept_drop_prob = 0.02;
  plan.recv_fail_prob = 0.02;
  plan.recv_disconnect_prob = 0.02;
  plan.send_fail_prob = 0.02;
  plan.short_send_prob = 0.02;
  plan.latency_prob = 0.01;
  plan.latency_us = 100;
  return plan;
}

struct WebStressResult {
  std::uint64_t ok_gets = 0;
  std::uint64_t ok_posts = 0;
  std::uint64_t errors = 0;
  std::uint64_t client_get_bytes = 0;
  std::uint64_t client_post_bytes = 0;
  std::vector<std::string> failures;
};

/// One seeded soak round: `clients` keep-alive connections drive a mixed
/// GET/POST stream against a fault-wrapped server, verifying every
/// successful response byte-exactly as it arrives.
WebStressResult run_web_stress(std::uint64_t seed,
                               io::ManagedFileSystem& fs,
                               MiniWebServer& server,
                               const std::map<std::string, std::string>& docs,
                               int clients, std::uint64_t requests) {
  WebStressResult result;
  std::mutex mutex;  // failures + posted-file log
  std::vector<std::pair<std::string, std::string>> posted;  // name -> body
  std::vector<std::string> doc_names;
  for (const auto& [name, content] : docs) doc_names.push_back(name);

  auto worker = [&](int c) {
    const std::string tag =
        "seed=" + std::to_string(seed) + " client=" + std::to_string(c);
    util::Rng rng(util::SplitMix64(seed * 0x9e37u + c).next());
    util::ZipfDistribution zipf(doc_names.size(), 1.0);
    WebStressResult local;
    std::vector<std::pair<std::string, std::string>> local_posted;
    HttpClient client(server.port(), /*keep_alive=*/true);
    for (std::uint64_t r = 0; r < requests; ++r) {
      try {
        if (rng.bernoulli(0.25)) {
          // POST a deterministic, uniformly-filled body (size varies so
          // truncation at any boundary is visible).
          const std::size_t bytes = 64 + rng.uniform_u64(4000);
          std::string body(bytes,
                           static_cast<char>('A' + (c * 11 + r) % 26));
          const auto response = client.post("/upload", body);
          if (response.status == 201) {
            ++local.ok_posts;
            local.client_post_bytes += body.size();
            local_posted.emplace_back(response.body, std::move(body));
          } else {
            ++local.errors;
          }
        } else {
          const std::string& name = doc_names[zipf(rng)];
          const auto response = client.get("/" + name);
          if (response.status == 200) {
            ++local.ok_gets;
            local.client_get_bytes += response.body.size();
            // Byte-exact oracle: a complete 200 must carry exactly the
            // published content, faults or not.
            if (response.body != docs.at(name)) {
              local.failures.push_back(
                  tag + " req=" + std::to_string(r) + ": GET /" + name +
                  " returned " + std::to_string(response.body.size()) +
                  " bytes that differ from the published content");
            }
          } else {
            ++local.errors;
          }
        }
      } catch (const std::exception&) {
        // Injected transport failure surfaced to the client; the next
        // round trip reconnects.  That is the point of the exercise.
        ++local.errors;
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    result.ok_gets += local.ok_gets;
    result.ok_posts += local.ok_posts;
    result.errors += local.errors;
    result.client_get_bytes += local.client_get_bytes;
    result.client_post_bytes += local.client_post_bytes;
    for (auto& f : local.failures) result.failures.push_back(std::move(f));
    for (auto& p : local_posted) posted.push_back(std::move(p));
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) threads.emplace_back(worker, c);
    for (auto& t : threads) t.join();
  }

  const std::string seed_tag = "seed=" + std::to_string(seed);

  // Post-drain verification of every acknowledged POST: a 201 means the
  // body was stored; after the drain it must read back byte-exact through
  // the managed fs (a torn write behind a 201 is a durability lie).
  for (const auto& [name, body] : posted) {
    if (!fs.exists(name)) {
      result.failures.push_back(seed_tag + ": acknowledged POST file '" +
                                name + "' does not exist after the drain");
      continue;
    }
    auto file = fs.open(name, io::OpenMode::kRead);
    std::string stored(static_cast<std::size_t>(file.size()), '\0');
    file.read_exact(std::as_writable_bytes(
        std::span<char>(stored.data(), stored.size())));
    if (stored != body) {
      result.failures.push_back(seed_tag + ": acknowledged POST file '" +
                                name + "' stored " +
                                std::to_string(stored.size()) +
                                " bytes that differ from the posted body");
    }
  }
  return result;
}

void expect_clean(const WebStressResult& result, const ServerStats& stats,
                  const NetFaultStats& faults, std::uint64_t seed) {
  for (const std::string& failure : result.failures) {
    ADD_FAILURE() << failure << "  (reproduce with CLIO_STRESS_SEED=" << seed
                  << ")";
  }
  // Served-byte/demand oracle: what the clients received in complete
  // responses is exactly what the server accounted after complete sends.
  EXPECT_EQ(result.client_get_bytes, stats.get_body_bytes_sent)
      << "seed " << seed << ": client GET bytes vs server-sent bytes"
      << "  (reproduce with CLIO_STRESS_SEED=" << seed << ")";
  EXPECT_EQ(result.client_post_bytes, stats.post_body_bytes)
      << "seed " << seed << ": client POST bytes vs server-stored bytes"
      << "  (reproduce with CLIO_STRESS_SEED=" << seed << ")";
  // A storm that injected nothing proves nothing.
  EXPECT_GT(faults.total_faults(), 0u)
      << "seed " << seed << " injected no faults";
  // And the service must not have collapsed: most requests still succeed.
  EXPECT_GT(result.ok_gets + result.ok_posts, 0u) << "seed " << seed;
}

TEST(WebStress, SeededRequestMixUnderNetFaults) {
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::TempDir dir("clio-webstress");
    io::ManagedFileSystem fs(
        std::make_unique<io::RealFileStore>(dir.path(),
                                            /*idle_fd_cache=*/128),
        io::ManagedFsOptions{});

    // Publish a small zoo of files with deterministic per-file content.
    // The last one is larger than the server's page-gather cap (64 pages
    // of 4 KiB), so native GETs of it take the buffered send path and the
    // byte-exact and served-byte oracles cover both paths under the storm.
    std::map<std::string, std::string> docs;
    const std::size_t sizes[] = {900, 3100, 7501, 14063, 26000, 50607,
                                 300000};
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      const std::string name = "doc" + std::to_string(i) + ".bin";
      std::string content(sizes[i], '\0');
      for (std::size_t b = 0; b < content.size(); ++b) {
        content[b] = static_cast<char>('a' + (b * 31 + i * 7) % 26);
      }
      auto file = fs.open(name, io::OpenMode::kTruncate);
      file.write(std::as_bytes(
          std::span<const char>(content.data(), content.size())));
      file.close();
      docs.emplace(name, std::move(content));
    }

    NetFaultInjector injector(storm_plan(seed));
    ServerOptions options;
    options.worker_threads = 4;
    options.max_pending = 16;
    options.fault_injector = &injector;
    MiniWebServer server(fs, options);
    server.start();

    WebStressResult result = run_web_stress(
        seed, fs, server, docs, /*clients=*/6, requests_per_client());

    // Clean drain: faults off, every file must read byte-exact through a
    // fresh connection, and the pool must still satisfy its invariants.
    // Drain reads count into the client-side byte tally too — the server's
    // served-byte counter includes them.
    injector.arm(false);
    HttpClient fresh(server.port(), /*keep_alive=*/true);
    for (const auto& [name, content] : docs) {
      const auto response = fresh.get("/" + name);
      EXPECT_EQ(response.status, 200)
          << "seed " << seed << ": clean drain GET /" << name
          << "  (reproduce with CLIO_STRESS_SEED=" << seed << ")";
      EXPECT_TRUE(response.body == content)
          << "seed " << seed << ": clean drain GET /" << name
          << " not byte-exact  (reproduce with CLIO_STRESS_SEED=" << seed
          << ")";
      if (response.status == 200) {
        ++result.ok_gets;
        result.client_get_bytes += response.body.size();
      }
    }
    fresh.disconnect();
    // stop() joins every worker, so the counters read below are final.
    server.stop();
    fs.pool().drain_prefetches();
    ASSERT_NO_THROW(fs.pool().debug_validate())
        << "seed " << seed
        << "  (reproduce with CLIO_STRESS_SEED=" << seed << ")";

    expect_clean(result, server.stats(), injector.stats(), seed);
  }
}

TEST(WebStress, MostlyIdleConnectionSoak) {
  // The C10K soak: thousands of keep-alive connections, nearly all parked
  // idle, over a handful of workers — the workload the event loop exists
  // for — under the seeded net fault plan, with the served-byte oracle,
  // a drain-deadline check on stop() and fd-leak accounting at the end.
  //
  //   CLIO_SOAK_CONNS  — target connection count (default 2000; CI's
  //                      stress-soak job raises ulimit -n and asks for
  //                      10000, the TSan job scales down to 500)
  struct rlimit nofile {};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &nofile), 0);
  if (nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;  // best effort; cap re-checked below
    (void)setrlimit(RLIMIT_NOFILE, &nofile);
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &nofile), 0);
  }
  std::size_t target = 2000;
  if (const char* env = std::getenv("CLIO_SOAK_CONNS")) {
    target = std::strtoull(env, nullptr, 10);
  }
  // Each connection costs two fds (client + server end); keep headroom for
  // the suite's own files, the pool and the listener/epoll/eventfd set.
  const std::size_t conns = std::min<std::size_t>(
      target,
      (static_cast<std::size_t>(nofile.rlim_cur) - 512) / 2);
  const std::uint64_t seed = seeds_under_test().front();

  const std::size_t fds_before = count_open_fds();
  util::TempDir dir("clio-webstress");
  io::ManagedFileSystem fs(std::make_unique<io::RealFileStore>(dir.path()),
                           io::ManagedFsOptions{});
  std::string content(8192, '\0');
  for (std::size_t b = 0; b < content.size(); ++b) {
    content[b] = static_cast<char>('a' + (b * 31) % 26);
  }
  {
    auto file = fs.open("doc.bin", io::OpenMode::kTruncate);
    file.write(std::as_bytes(
        std::span<const char>(content.data(), content.size())));
    file.close();
  }

  NetFaultInjector injector(storm_plan(seed));
  ServerOptions options;
  options.worker_threads = 8;
  options.max_pending = 64;
  options.fault_injector = &injector;
  options.drain_deadline_ms = 2000;
  MiniWebServer server(fs, options);
  server.start();

  // Phase 1: park the herd.  Every connection does one GET (byte-checked)
  // and then goes silent.  Injected faults fail individual setups; those
  // connections are simply not parked.
  std::mutex mutex;
  std::vector<Socket> parked;
  std::uint64_t client_get_bytes = 0;
  std::uint64_t setup_errors = 0;
  const std::string wire =
      "GET /doc.bin HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
  {
    const std::size_t spinners = 8;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < spinners; ++t) {
      threads.emplace_back([&, t] {
        std::vector<Socket> local;
        std::uint64_t local_bytes = 0;
        std::uint64_t local_errors = 0;
        for (std::size_t i = t; i < conns; i += spinners) {
          try {
            Socket s = connect_loopback(server.port());
            set_recv_timeout(s.fd(), 10000);
            s.send_all(wire.data(), wire.size());
            const auto response = read_response(s);
            if (response.status == 200 && response.body == content &&
                response.keep_alive) {
              local_bytes += response.body.size();
              local.push_back(std::move(s));
            } else if (response.status == 200) {
              ++local_errors;  // torn body would fail the oracle below
            } else {
              ++local_errors;
            }
          } catch (const std::exception&) {
            ++local_errors;  // injected accept drop / recv fault
          }
        }
        std::lock_guard<std::mutex> lock(mutex);
        client_get_bytes += local_bytes;
        setup_errors += local_errors;
        for (auto& s : local) parked.push_back(std::move(s));
      });
    }
    for (auto& t : threads) t.join();
  }
  // The storm must not have eaten the herd: the point is mostly-idle mass.
  ASSERT_GT(parked.size(), conns / 2)
      << "seed " << seed << ": only " << parked.size() << " of " << conns
      << " connections survived setup";

  // Phase 2: a small active mix keeps the workers busy while the herd
  // sits parked — proving idle connections cost fds, not throughput.
  {
    std::vector<std::thread> actives;
    std::atomic<std::uint64_t> active_bytes{0};
    for (int c = 0; c < 4; ++c) {
      actives.emplace_back([&, c] {
        HttpClient client(server.port(), /*keep_alive=*/true);
        std::uint64_t local = 0;
        for (int r = 0; r < 100; ++r) {
          try {
            const auto response = client.get("/doc.bin");
            if (response.status == 200) {
              EXPECT_EQ(response.body, content)
                  << "seed " << seed << " active client " << c;
              local += response.body.size();
            }
          } catch (const std::exception&) {
          }
        }
        active_bytes.fetch_add(local);
      });
    }
    for (auto& t : actives) t.join();
    client_get_bytes += active_bytes.load();
  }

  // Phase 3: poke a sample of the parked herd — a parked connection is
  // alive, not merely unclosed.  Faults can still kill individual pokes.
  std::uint64_t poked_ok = 0;
  for (std::size_t i = 0; i < parked.size(); i += 64) {
    try {
      parked[i].send_all(wire.data(), wire.size());
      const auto response = read_response(parked[i]);
      if (response.status == 200) {
        EXPECT_EQ(response.body, content) << "seed " << seed << " poke " << i;
        client_get_bytes += response.body.size();
        ++poked_ok;
      }
    } catch (const std::exception&) {
    }
  }
  EXPECT_GT(poked_ok, 0u) << "seed " << seed;

  // Clean drain exchange, then stop() with the drain-deadline stopwatch:
  // closing thousands of parked fds must not stretch the shutdown.
  injector.arm(false);
  {
    HttpClient fresh(server.port());
    const auto response = fresh.get("/doc.bin");
    EXPECT_EQ(response.status, 200) << "seed " << seed;
    EXPECT_EQ(response.body, content) << "seed " << seed;
    if (response.status == 200) client_get_bytes += response.body.size();
  }
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(stop_ms, options.drain_deadline_ms + 5000)
      << "seed " << seed << ": stop() took " << stop_ms
      << " ms against a " << options.drain_deadline_ms << " ms drain deadline";

  // Served-byte oracle across all phases, storm included.
  EXPECT_EQ(client_get_bytes, server.stats().get_body_bytes_sent)
      << "seed " << seed << " (reproduce with CLIO_STRESS_SEED=" << seed
      << ", CLIO_SOAK_CONNS=" << conns << ")";
  EXPECT_GT(injector.stats().total_faults(), 0u) << "seed " << seed;

  // Fd accounting: with the client ends gone and the server stopped, the
  // process is back to its pre-test baseline (listener, epoll set,
  // eventfd and every one of the thousands of connection fds released).
  parked.clear();
  EXPECT_LE(count_open_fds(), fds_before + 16)
      << "seed " << seed << ": fd leak across the soak";
}

TEST(WebStress, BackpressureUnderStormNeverWedgesTheServer) {
  // A hostile mix of faults and a tiny queue: the accept loop must keep
  // answering (503 or service) for the whole storm — the test completing
  // at all is the assertion, the final clean exchange the proof of life.
  for (const std::uint64_t seed : seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::TempDir dir("clio-webstress");
    io::ManagedFileSystem fs(
        std::make_unique<io::RealFileStore>(dir.path(),
                                            /*idle_fd_cache=*/128),
        io::ManagedFsOptions{});
    {
      auto file = fs.open("doc.bin", io::OpenMode::kTruncate);
      std::vector<std::byte> content(8192, std::byte{0x42});
      file.write(content);
      file.close();
    }
    NetFaultInjector injector(storm_plan(seed));
    ServerOptions options;
    options.worker_threads = 1;
    options.max_pending = 2;
    options.fault_injector = &injector;
    MiniWebServer server(fs, options);
    server.start();

    LoadGenOptions load;
    load.connections = 6;
    load.requests_per_connection = requests_per_client() / 2;
    load.keep_alive = false;  // maximal accept/queue churn
    load.seed = seed;
    load.files = {"doc.bin"};
    const LoadReport report = LoadGenerator(load).run(server.port());
    EXPECT_GT(report.ok + report.errors + report.rejected_503, 0u);

    injector.arm(false);
    HttpClient client(server.port());
    EXPECT_EQ(client.get("/doc.bin").status, 200)
        << "seed " << seed
        << "  (reproduce with CLIO_STRESS_SEED=" << seed << ")";
    server.stop();
  }
}

}  // namespace
}  // namespace clio::net
