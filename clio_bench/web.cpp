// The serving workload (web_mixed): two closed-loop keep-alive clients send
// Zipf-popular GETs over a generated docroot and 10% POSTs of 4 KiB, Table
// 5's writes beside its reads.  Turns alternate between the library's
// epoll server and the native reference server (native.hpp), which holds
// the same documents.  Every GET body is compared with the generated file,
// every POST must answer 201, and each server's served-byte counters must
// match what the clients received and sent.
#include <array>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "io/file_store.hpp"
#include "native.hpp"
#include "net/client.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"

namespace clio::bench {
namespace {

// Two closed-loop connections to each server.  The run is confined to one
// CPU (pin_to_one_cpu), so clients, event loop and workers take turns on it.
constexpr std::size_t kClients = 2;
constexpr std::size_t kServerWorkers = 4;
// One turn of either server; a pair of turns, one each, yields one value
// of each gated metric.
constexpr double kTurnSeconds = 0.25;

// The docroot: kDocs files, ~0.9 MiB in all, which the 4 MiB pool holds
// entirely.  A POST's truncating open and flushing close each walk the
// whole page table (README.md, "Found by this benchmark"), so with the
// default 16 MiB pool POSTs took most of the server's time, and their cost
// followed the host's memory latency, which the native server's do not.
constexpr std::size_t kDocs = 64;
constexpr std::uint64_t kMinDocBytes = 512;
constexpr std::uint64_t kMaxDocBytes = 64 << 10;
constexpr double kZipf = 1.0;  ///< popularity exponent
constexpr double kPostFraction = 0.1;
constexpr std::size_t kPostBytes = 4096;
constexpr std::size_t kPoolPages = 1024;

enum Side { kSystem = 0, kNative = 1 };

/// The side that serves turn `turn`.  Pairs alternate which side goes
/// first, so neither always follows the other.
Side side_of(int turn) {
  return ((turn % 2) ^ (turn / 2 % 2)) == 0 ? kSystem : kNative;
}

/// Document sizes by popularity rank: the paper's Table 5 sizes, then
/// log-uniform quantiles between kMinDocBytes and kMaxDocBytes in one fixed
/// order.  They do not depend on the seed, so every seed serves the same
/// size mix and only the bytes and the request sequence change.
std::vector<std::uint64_t> doc_sizes() {
  std::vector<std::uint64_t> sizes = {14063, 7501, 50607};
  std::vector<std::uint64_t> spread;
  const std::size_t n = kDocs - sizes.size();
  const double span = static_cast<double>(kMaxDocBytes) /
                      static_cast<double>(kMinDocBytes);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    spread.push_back(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(kMinDocBytes) * std::pow(span, t))));
  }
  util::Rng fixed(0x5eedf11eULL);
  fixed.shuffle(spread);
  sizes.insert(sizes.end(), spread.begin(), spread.end());
  return sizes;
}

std::string random_bytes(util::Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t x = rng.next_u64();
    std::memcpy(s.data() + i, &x, std::min<std::size_t>(8, n - i));
  }
  return s;
}

struct Doc {
  std::string name;
  std::string body;
};

struct WebState {
  WebState() = default;
  WebState(const WebState&) = delete;
  WebState& operator=(const WebState&) = delete;
  ~WebState() {
    if (server != nullptr) stop_when_idle(*server);
  }

  std::vector<Doc> docs;
  std::unique_ptr<io::ManagedFileSystem> fs;
  std::unique_ptr<net::MiniWebServer> server;  ///< stops before fs dies
  std::unique_ptr<native::Server> reference;
};

net::ServerOptions server_options() {
  net::ServerOptions options;
  options.worker_threads = kServerWorkers;
  return options;
}

io::ManagedFsOptions fs_options() {
  io::ManagedFsOptions options;
  options.pool_pages = kPoolPages;
  return options;
}

std::unique_ptr<WebState> make_state(std::uint64_t seed) {
  auto state = std::make_unique<WebState>();
  // Every POST creates a file.  In a RealFileStore on ext4 the kernel
  // flushes a truncated-then-written file on its last close, so POST
  // latency followed the shared disk and runs split 2x apart; the in-memory
  // store keeps the measurement on the server and the pool.
  auto store = std::make_unique<io::SimFileStore>(/*num_disks=*/1,
                                                  /*stripe_bytes=*/64 << 10);
  native::Server::Docs table;
  util::Rng rng(seed);
  const auto sizes = doc_sizes();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Doc doc{"doc" + std::to_string(i) + ".bin",
            random_bytes(rng, static_cast<std::size_t>(sizes[i]))};
    const io::FileId id = store->open(doc.name, /*create=*/true);
    store->write(id, 0,
                 std::as_bytes(std::span(doc.body.data(), doc.body.size())));
    store->close(id);
    table.emplace(doc.name, doc.body);
    state->docs.push_back(std::move(doc));
  }
  state->fs = std::make_unique<io::ManagedFileSystem>(std::move(store),
                                                      fs_options());
  state->server =
      std::make_unique<net::MiniWebServer>(*state->fs, server_options());
  state->server->start();
  state->reference = std::make_unique<native::Server>(std::move(table));
  return state;
}

/// One client's observations.  Latencies are filed under the pair of turns
/// that was current when the request was issued; warm-up ones are not kept.
struct Tally {
  explicit Tally(std::size_t pairs)
      : ms{std::vector<std::vector<double>>(pairs),
           std::vector<std::vector<double>>(pairs)},
        get_ms(pairs),
        post_ms(pairs) {}

  std::array<std::vector<std::vector<double>>, 2> ms;  ///< [side][pair]
  std::vector<std::vector<double>> get_ms;   ///< system GETs, by pair
  std::vector<std::vector<double>> post_ms;  ///< system POSTs, by pair
  std::uint64_t measured_payload = 0;  ///< system body bytes, measured turns
  std::uint64_t attempted = 0;
  std::uint64_t get_ok = 0;  ///< system 200 GETs, whole run
  /// 200 GET bodies received and 201 POST bodies sent, whole run.
  std::array<std::uint64_t, 2> get_bytes{};
  std::array<std::uint64_t, 2> post_bytes{};
};

struct ClientArgs {
  const std::vector<std::string>& paths;
  const std::vector<std::string>& expected;
  std::uint16_t system_port;
  std::uint16_t native_port;
  std::uint64_t seed;
  const std::atomic<int>& turn;  ///< -1 during warm-up
  Tracer& tracer;
  Oracle& oracle;
};

void client_loop(const ClientArgs& a, Tally& t) {
  util::Rng rng(a.seed);
  const util::ZipfDistribution popularity(a.paths.size(), kZipf);
  const std::string post_body = random_bytes(rng, kPostBytes);
  net::HttpClient system(a.system_port, /*keep_alive=*/true);
  native::Client reference(a.native_port);
  const auto turns = static_cast<int>(2 * t.get_ms.size());
  bool warm_system = false;
  std::string body;
  for (;;) {
    const int turn = a.turn.load(std::memory_order_acquire);
    if (turn >= turns) break;
    // The warm-up alternates sides request by request.
    const Side side = turn >= 0                       ? side_of(turn)
                      : (warm_system = !warm_system) ? kSystem
                                                     : kNative;
    const bool post = rng.bernoulli(kPostFraction);
    const std::size_t doc = post ? 0 : popularity(rng);
    ++t.attempted;
    const char* who = side == kSystem ? "" : " (native)";
    double ms = 0.0;
    int status = 0;
    try {
      util::Stopwatch watch;
      if (side == kSystem) {
        net::ClientResult res;
        {
          Tracer::Span span(a.tracer, post ? "http.post" : "http.get",
                            Layer::kNet);
          res = post ? system.post("/upload", post_body)
                     : system.get(a.paths[doc]);
        }
        ms = watch.elapsed_ms();
        status = res.status;
        body = std::move(res.body);
      } else {
        status = post ? reference.post("/upload", post_body, body)
                      : reference.get(a.paths[doc], body);
        ms = watch.elapsed_ms();
      }
    } catch (const std::exception& e) {
      a.oracle.fail(std::string("request failed") + who + ": " + e.what());
      continue;
    }
    std::size_t payload = 0;
    if (post) {
      if (status != 201) {
        a.oracle.fail(std::string("POST did not answer 201") + who);
        continue;
      }
      payload = post_body.size();
      t.post_bytes[side] += payload;
    } else {
      if (status != 200) {
        a.oracle.fail(std::string("GET did not answer 200") + who);
        continue;
      }
      payload = body.size();
      t.get_bytes[side] += payload;
      if (side == kSystem) ++t.get_ok;
      if (body != a.expected[doc]) {
        a.oracle.fail("GET body differs from " + a.paths[doc] + who);
        continue;
      }
    }
    if (turn < 0) continue;
    const auto pair = static_cast<std::size_t>(turn / 2);
    t.ms[side][pair].push_back(ms);
    if (side == kSystem) {
      (post ? t.post_ms : t.get_ms)[pair].push_back(ms);
      t.measured_payload += payload;
    }
  }
}

}  // namespace

void report_net_layer(RunResult& r, net::MiniWebServer& server,
                      std::uint64_t get_ok, double client_mean_ms) {
  const auto stage = [&](obs::Stage s) {
    return server.metrics()
        .timer("clio_request_stage_" + std::string(obs::stage_name(s)) +
               "_ns")
        .snapshot();
  };
  const auto queue_wait = stage(obs::Stage::kQueueWait);
  const auto parse = stage(obs::Stage::kParse);
  const auto handler = stage(obs::Stage::kHandler);
  const auto storage = stage(obs::Stage::kStorageOp);
  const auto send = stage(obs::Stage::kSend);
  const auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3;
  };
  r.metrics["net.queue_wait_p50_us"] = us(queue_wait.p50_ns);
  r.metrics["net.queue_wait_p99_us"] = us(queue_wait.p99_ns);
  r.metrics["net.parse_p50_us"] = us(parse.p50_ns);
  r.metrics["net.handler_p50_us"] = us(handler.p50_ns);
  r.metrics["net.handler_p99_us"] = us(handler.p99_ns);
  r.metrics["net.storage_op_p50_us"] = us(storage.p50_ns);
  r.metrics["net.storage_op_p99_us"] = us(storage.p99_ns);
  r.metrics["net.send_p50_us"] = us(send.p50_ns);
  r.metrics["net.send_p99_us"] = us(send.p99_ns);
  // The handler stage encloses storage_op and send, so one request's
  // server time is queue wait + parse + handler; the rest of the client's
  // round trip is loopback, wake-ups and the client itself.
  r.metrics["net.unattributed_us"] =
      client_mean_ms * 1e3 -
      (queue_wait.mean_ns + parse.mean_ns + handler.mean_ns) / 1e3;
  for (const auto& [name, snap] :
       {std::pair{"stage_queue_wait_ns", queue_wait},
        {"stage_parse_ns", parse},
        {"stage_handler_ns", handler},
        {"stage_storage_op_ns", storage},
        {"stage_send_ns", send}}) {
    r.distributions.emplace_back(name, snap);
  }

  const net::ServerStats s = server.stats();
  const auto share = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), static_cast<double>(get_ok));
  };
  const std::uint64_t zero_copy =
      s.gather_responses + s.sendfile_responses + s.cache_responses;
  r.metrics["net.gather_frac"] = share(s.gather_responses);
  r.metrics["net.cache_frac"] = share(s.cache_responses);
  r.metrics["net.buffered_frac"] =
      share(get_ok > zero_copy ? get_ok - zero_copy : 0);
}

/// Waits for the server's served-byte counters (bumped after each send
/// completes) to catch up with what the clients saw, then checks them.
void check_served_bytes(Oracle& oracle, const net::MiniWebServer& server,
                        std::uint64_t get_bytes, std::uint64_t post_bytes) {
  net::ServerStats s;
  for (int i = 0; i < 200; ++i) {
    s = server.stats();
    if (s.get_body_bytes_sent == get_bytes &&
        s.post_body_bytes == post_bytes) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  oracle.check(s.get_body_bytes_sent == get_bytes,
               "served-byte oracle: server sent " +
                   std::to_string(s.get_body_bytes_sent) +
                   " GET body bytes, clients received " +
                   std::to_string(get_bytes));
  oracle.check(s.post_body_bytes == post_bytes,
               "served-byte oracle: server stored " +
                   std::to_string(s.post_body_bytes) +
                   " POST bytes, clients sent " + std::to_string(post_bytes));
}

/// Drains readahead and runs the pool's invariant checker.
void check_pool(Oracle& oracle, io::BufferPool& pool) {
  pool.drain_prefetches();
  try {
    pool.debug_validate();
  } catch (const std::exception& e) {
    oracle.fail(std::string("debug_validate: ") + e.what());
  }
}

void run_web(const RunConfig& config, Tracer& tracer, RunResult& r) {
  auto state = timed_setup<WebState>(
      config.workdir, r,
      [&](const std::filesystem::path&) { return make_state(config.seed); });
  net::MiniWebServer& server = *state->server;
  io::ManagedFileSystem& fs = *state->fs;

  std::vector<std::string> paths;
  std::vector<std::string> expected;
  std::uint64_t docroot_bytes = 0;
  for (const Doc& doc : state->docs) {
    paths.push_back("/" + doc.name);
    expected.push_back(doc.body);
    docroot_bytes += doc.body.size();
  }
  if (config.inject == Inject::kExpectedByte) expected[0][7] ^= 0x01;

  const auto pairs = static_cast<std::size_t>(
      std::max(1L, std::lround(config.seconds / (2 * kTurnSeconds))));
  const auto turns = static_cast<int>(2 * pairs);
  std::atomic<int> turn{-1};
  std::vector<Tally> tallies(kClients, Tally(pairs));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const ClientArgs args{paths,
                            expected,
                            server.port(),
                            state->reference->port(),
                            config.seed * 0x9e3779b97f4a7c15ULL + c + 1,
                            turn,
                            tracer,
                            r.oracle};
      try {
        client_loop(args, tallies[c]);
      } catch (const std::exception& e) {
        r.oracle.fail(std::string("client failed: ") + e.what());
      }
    });
  }

  using Clock = util::Stopwatch::Clock;
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  server.metrics().reset();
  fs.stats().reset();
  const io::PoolStats pool_before = fs.pool().stats();
  std::array<std::vector<double>, 2> turn_s{std::vector<double>(pairs),
                                            std::vector<double>(pairs)};
  const auto start = Clock::now();
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.seconds / turns));
  for (int t = 0; t < turns; ++t) {
    const util::Stopwatch watch;
    turn.store(t, std::memory_order_release);
    std::this_thread::sleep_until(start + length * (t + 1));
    turn_s[side_of(t)][static_cast<std::size_t>(t / 2)] = watch.elapsed_sec();
  }
  turn.store(turns, std::memory_order_release);
  for (auto& t : clients) t.join();

  // One value of each metric per pair of turns.
  std::vector<double> cost, p50_x;
  std::array<std::vector<double>, 2> ops, p50, p99;
  std::vector<double> p999, get_p50, get_p99, post_p50, post_p99;
  std::array<util::LatencyHistogram, 2> hist;
  util::LatencyHistogram get_hist, post_hist;
  double system_sum_ms = 0.0;
  std::size_t system_count = 0;
  std::uint64_t get_ok = 0, measured_payload = 0;
  std::array<std::uint64_t, 2> get_bytes{}, post_bytes{};
  for (const Tally& t : tallies) {
    r.attempted += t.attempted;
    get_ok += t.get_ok;
    measured_payload += t.measured_payload;
    for (const Side side : {kSystem, kNative}) {
      get_bytes[side] += t.get_bytes[side];
      post_bytes[side] += t.post_bytes[side];
    }
  }
  for (std::size_t p = 0; p < pairs; ++p) {
    std::array<std::vector<double>, 2> all;
    std::vector<double> gets, posts;
    for (const Tally& t : tallies) {
      for (const Side side : {kSystem, kNative}) {
        all[side].insert(all[side].end(), t.ms[side][p].begin(),
                         t.ms[side][p].end());
      }
      gets.insert(gets.end(), t.get_ms[p].begin(), t.get_ms[p].end());
      posts.insert(posts.end(), t.post_ms[p].begin(), t.post_ms[p].end());
    }
    if (all[kSystem].empty() || all[kNative].empty()) continue;
    for (const Side side : {kSystem, kNative}) {
      add_samples_ms(hist[side], all[side]);
      ops[side].push_back(static_cast<double>(all[side].size()) /
                          turn_s[side][p]);
      p50[side].push_back(quantile(all[side], 0.50));
      p99[side].push_back(quantile(all[side], 0.99));
    }
    for (const double v : all[kSystem]) system_sum_ms += v;
    system_count += all[kSystem].size();
    cost.push_back(ops[kNative].back() / ops[kSystem].back());
    p50_x.push_back(p50[kSystem].back() / p50[kNative].back());
    p999.push_back(quantile(all[kSystem], 0.999));
    add_samples_ms(get_hist, gets);
    add_samples_ms(post_hist, posts);
    get_p50.push_back(quantile(gets, 0.50));
    get_p99.push_back(quantile(gets, 0.99));
    if (!posts.empty()) {
      post_p50.push_back(quantile(posts, 0.50));
      post_p99.push_back(quantile(posts, 0.99));
    }
  }
  r.oracle.check(!cost.empty(), "no pair of turns served both sides");
  report_ratios(r, cost, p50_x);
  r.metrics["ops_per_s"] = median(ops[kSystem]);
  r.metrics["native_ops_per_s"] = median(ops[kNative]);
  r.metrics["p50_ms"] = median(p50[kSystem]);
  r.metrics["native_p50_ms"] = median(p50[kNative]);
  r.metrics["p99_ms"] = median(p99[kSystem]);
  r.metrics["native_p99_ms"] = median(p99[kNative]);
  r.metrics["p999_ms"] = median(p999);
  r.metrics["net.get_p50_ms"] = median(get_p50);
  r.metrics["net.get_p99_ms"] = median(get_p99);
  r.metrics["net.post_p50_ms"] = median(post_p50);
  r.metrics["net.post_p99_ms"] = median(post_p99);
  r.distributions.emplace_back("latency_ns", hist[kSystem].snapshot());
  r.distributions.emplace_back("native_latency_ns", hist[kNative].snapshot());
  r.distributions.emplace_back("get_latency_ns", get_hist.snapshot());
  if (post_hist.count() > 0) {
    r.distributions.emplace_back("post_latency_ns", post_hist.snapshot());
  }

  check_served_bytes(r.oracle, server, get_bytes[kSystem],
                     post_bytes[kSystem]);
  const native::Server& reference = *state->reference;
  const auto reference_caught_up = [&] {
    return reference.get_body_bytes() == get_bytes[kNative] &&
           reference.post_body_bytes() == post_bytes[kNative];
  };
  for (int i = 0; i < 200 && !reference_caught_up(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  r.oracle.check(reference_caught_up(),
                 "served-byte oracle: the native server's counters differ "
                 "from what its clients saw");
  report_net_layer(r, server, get_ok,
                   ratio(system_sum_ms, static_cast<double>(system_count)));
  report_io_layer(r, pool_delta(fs.pool().stats(), pool_before), fs.stats(),
                  fs.pool().page_size(),
                  static_cast<double>(measured_payload));
  stop_when_idle(server);
  check_pool(r.oracle, fs.pool());

  r.server_options = server_options();
  r.fs_options = fs_options();
  r.params.insert(r.params.end(),
                  {{"clients", static_cast<double>(kClients)},
                   {"turn_s", config.seconds / turns},
                   {"pairs", static_cast<double>(pairs)},
                   {"files", static_cast<double>(kDocs)},
                   {"docroot_bytes", static_cast<double>(docroot_bytes)},
                   {"zipf_exponent", kZipf},
                   {"post_fraction", kPostFraction},
                   {"post_bytes", static_cast<double>(kPostBytes)}});
}

}  // namespace clio::bench
