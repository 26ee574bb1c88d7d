#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "io/managed_file.hpp"
#include "net/fault_channel.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/resilience.hpp"
#include "vm/runtime.hpp"

namespace clio::net {

/// Per-request latency sample, split into the parts the paper's Tables 5-6
/// time: the file I/O portion ("creating an instance of the filestream
/// class, reading the data from the file, and closing the filestream") and
/// the full request turnaround.
struct RequestSample {
  bool is_get = true;
  std::uint64_t bytes = 0;
  double file_ms = 0.0;   ///< time in the managed file operation
  double total_ms = 0.0;  ///< parse + file op (response transmit excluded
                          ///< so samples stay in request order)
};

/// Aggregate serving counters (snapshot; the live counters are atomics).
/// These are the server side of the stress harness's served-byte oracle:
/// get_body_bytes_sent counts only 200 bodies whose send completed, so it
/// must equal the bytes the clients actually received in full responses.
struct ServerStats {
  std::uint64_t accepted = 0;         ///< connections the accept loop took
  std::uint64_t dropped_accepts = 0;  ///< injected accept drops
  std::uint64_t rejected_503 = 0;     ///< backpressure: queue was full
  std::uint64_t connections = 0;      ///< connections fully handled
  std::uint64_t requests = 0;         ///< requests parsed off a connection
  std::uint64_t responses_ok = 0;     ///< 2xx responses fully transmitted
  std::uint64_t get_body_bytes_sent = 0;   ///< 200 GET body bytes, post-send
  std::uint64_t post_body_bytes = 0;  ///< bytes stored by successful POSTs
  std::uint64_t parse_errors = 0;     ///< malformed requests (answered 400)
  std::uint64_t request_errors = 0;   ///< handler failures (answered 500)
  std::uint64_t io_errors = 0;        ///< connections torn down mid-exchange
  std::uint64_t timeouts_408 = 0;     ///< peers stalling mid-request (408)
  std::uint64_t degraded_503 = 0;     ///< storage-unavailable 503 responses
  std::uint64_t drained_503 = 0;      ///< requests 503'd by a stopping server
  std::uint64_t gather_responses = 0;  ///< 200s sent page-gather zero-copy
  /// Always 0: the sendfile tier is gone (kept for reports that read it).
  static constexpr std::uint64_t sendfile_responses = 0;
  /// Always 0: the hot-object cache is gone (kept for reports that read it).
  static constexpr std::uint64_t cache_responses = 0;
};

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = pick an ephemeral port
  /// Route file operations through a mini-CLI method instead of calling
  /// the managed I/O stack directly from native code.  This reproduces the
  /// JIT-compilation component of the first-request latency (Table 6).
  bool vm_dispatch = false;
  vm::EngineOptions vm_options{};
  /// Fixed worker pool size: the accept loop only accepts, workers serve.
  /// (The paper's spawn-per-connection design is worker_threads = N with an
  /// unbounded queue; a fixed pool is what "heavy traffic" deployments run.)
  std::size_t worker_threads = 4;
  /// Bounded hand-off queue between the accept loop and the workers.  When
  /// it is full the accept loop answers 503 and closes instead of queueing
  /// unboundedly — backpressure, not collapse.
  std::size_t max_pending = 64;
  /// Always true: the server honours HTTP/1.1 keep-alive, and closing after
  /// each response is the client's choice (`Connection: close`).  Kept as
  /// a name for reports that record it.
  static constexpr bool keep_alive = true;
  /// When set (not owned), every accepted connection is wrapped in a
  /// FaultChannel and the accept path consults should_drop_accept() — the
  /// seeded net-layer fault plan, mirroring FaultStore under the pool.
  NetFaultInjector* fault_injector = nullptr;
  /// Per-request wall-clock budget (0 = none).  Armed as the worker
  /// thread's ambient util::DeadlineScope around each dispatch, so every
  /// storage call the handler makes — including RetryingStore backoff
  /// sleeps — honors it without any signature plumbing.
  std::uint32_t request_deadline_ms = 0;
  /// Receive budget for a keep-alive connection parked *between* requests
  /// (0 = keep the 5 s in-request SO_RCVTIMEO).  An idle connection aging
  /// out is closed cleanly; a peer stalling mid-request still gets 408.
  int idle_timeout_ms = 0;
  /// The storage circuit breaker (not owned; typically shared with the
  /// RetryingStore under fs).  Read for /healthz and for degraded mode:
  /// while it is open, file requests answer 503 + Retry-After without
  /// touching storage.
  util::CircuitBreaker* breaker = nullptr;
  /// How long stop() waits for in-flight requests to finish before
  /// escalating to a full shutdown of the stragglers' connections.
  std::uint32_t drain_deadline_ms = 1000;
  /// Metrics registry the server publishes into (not owned).  nullptr (the
  /// default) gives the server a private registry — the safe choice when
  /// tests run several servers in one process, since metric names are
  /// unique per registry.  Point it at obs::MetricsRegistry::global() (or a
  /// shared instance) to aggregate across components; the server
  /// deregisters its callback metrics on destruction.
  obs::MetricsRegistry* metrics = nullptr;
  /// Always true: native GETs within the pin cap send pool pages zero-copy.
  static constexpr bool zero_copy = true;
  /// Always 0: the sendfile tier is gone (kept for reports that read it).
  static constexpr std::size_t sendfile_min_bytes = 0;
  /// Always 0: the hot-object cache is gone (kept for reports that read it).
  static constexpr std::size_t hot_cache_entries = 0;
  /// Cap on connections the event loop will own at once (0 = unlimited).
  /// At the cap, fresh connections get a best-effort 503 and close — fd
  /// backpressure, mirroring the request queue's.
  std::size_t max_connections = 0;
};

/// The paper's §4 web-server micro benchmark, grown into a readiness-
/// driven server: an epoll event loop owns every connection fd, parses
/// requests off ready sockets without blocking, and hands each *request*
/// (not each connection) to a fixed worker pool through a bounded queue —
/// so an idle keep-alive connection costs one fd, never a thread, and
/// concurrency is bounded by fds instead of worker_threads (the C10K
/// step; see docs/SERVING.md for the loop's state machine).  GET reads
/// the requested file from the managed file system and returns it —
/// straight from pinned pool pages when they fit the pin cap, else
/// through one buffered copy; POST writes the body to a new file named by
/// a counter-derived random number ("hence, no synchronization is
/// required for write operations").
class MiniWebServer {
 public:
  MiniWebServer(io::ManagedFileSystem& fs, ServerOptions options = {});
  ~MiniWebServer();

  MiniWebServer(const MiniWebServer&) = delete;
  MiniWebServer& operator=(const MiniWebServer&) = delete;

  /// Starts the accept thread, the epoll event loop and the worker pool.
  /// Idempotent.
  void start();

  /// Graceful drain, then stop.  Stops accepting, answers the queued
  /// request backlog with a clean 503 (instead of silently dropping it),
  /// closes parked idle keep-alive connections, waits up to
  /// drain_deadline_ms for in-flight requests to finish — escalating to a
  /// full connection shutdown on stragglers — and joins everything.
  /// Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Snapshot of per-request samples since start (in completion order).
  [[nodiscard]] std::vector<RequestSample> samples() const;
  void clear_samples();

  /// Toggles per-request sample recording (on by default).  Throughput
  /// runs switch it off: they read aggregate stats() only, and the sample
  /// log is a lock + push on every request.
  void set_record_samples(bool on) { record_samples_.store(on); }

  [[nodiscard]] ServerStats stats() const;

  /// Zeroes the live serving counters and the sample log.  start() calls
  /// this, so a restarted server's stats() describe the current run only —
  /// stale counters no longer leak across stop()/start() cycles.  The
  /// metrics registry is NOT reset: its counters are cumulative across the
  /// server's whole lifetime, which is what a Prometheus scraper expects.
  void reset_stats();

  /// The stats snapshot stop() captured when the previous run ended (all
  /// zeros before the first stop).  This is how callers account a finished
  /// run after a restart wiped the live counters.
  [[nodiscard]] ServerStats last_run_stats() const;

  /// The registry this server publishes into (its private one unless
  /// ServerOptions::metrics pointed elsewhere).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] const obs::RequestTracer& tracer() const { return *tracer_; }

  /// Simulates an engine restart: flushes the VM's JIT cache and the
  /// buffer pool, so the next request is fully cold (Table 6 setup).
  /// Safe to call while requests are in flight — pages a worker still
  /// holds pinned simply stay resident.
  void make_cold();

  [[nodiscard]] const vm::ExecutionEngine* engine() const {
    return engine_.get();
  }

  /// Most pages one GET may pin for a page-gather send: its fair share of
  /// the pool, so concurrent workers can never pin it dry (at most 64).
  /// Larger native GETs take the buffered path.
  [[nodiscard]] static std::size_t gather_cap_pages(
      std::size_t pool_capacity_pages, std::size_t worker_threads);

 private:
  /// Event-loop connection state (defined in server.cpp): socket, optional
  /// fault decorator, buffered reader, served-request count.  Owned by the
  /// loop; lent to exactly one worker at a time while `busy`.
  struct Conn;

  void accept_loop();
  void event_loop();
  void worker_loop();
  /// Serves `request` on a checked-out connection, then inline-drains any
  /// complete pipelined requests already buffered in its reader (they need
  /// no socket I/O, so bouncing them through the loop would only add
  /// latency — and the old design's arm/disarm bug 408'd them).  Sets
  /// `retire` when the connection must close instead of re-arming.
  void process_request(Conn& conn, HttpRequest request,
                       std::uint64_t parse_ns, bool& retire);
  /// Wakes the event loop (eventfd write); safe from any thread while the
  /// loop is alive.
  void wake_loop();
  void dispatch(Channel& channel, const HttpRequest& request, bool keep);
  void do_healthz(Channel& channel, bool keep);
  void do_metrics(Channel& channel, bool keep);
  void do_statz(Channel& channel, bool keep);
  /// Registers the callback gauges that mirror ServerStats, PoolStats,
  /// breaker and IoStats into the metrics registry (constructor helper).
  void register_metrics();
  [[nodiscard]] std::string render_statz() const;
  /// "Retry-After: N\r\n" derived from the breaker's remaining cooldown
  /// (empty when no breaker is armed).
  [[nodiscard]] std::string retry_after_header() const;
  void do_get(Channel& channel, const HttpRequest& request, bool keep);
  void do_post(Channel& channel, const HttpRequest& request, bool keep);
  std::string read_file_vm(const std::string& name);
  void record(RequestSample sample);

  io::ManagedFileSystem& fs_;
  ServerOptions options_;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<vm::ExecutionEngine> engine_;
  std::thread accept_thread_;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> record_samples_{true};
  std::atomic<std::uint64_t> post_counter_{0};

  // Loop-to-worker hand-off: one entry per parsed request.  Each carries
  // its enqueue timestamp so the worker that pops it can record the
  // queue-wait stage span, and the parse duration the loop measured.
  struct PendingRequest {
    Conn* conn = nullptr;
    HttpRequest request;
    std::int64_t enqueued_ns = 0;
    std::uint64_t parse_ns = 0;
  };
  std::deque<PendingRequest> pending_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;

  // Cross-thread mailboxes into the event loop, guarded by loop_mutex_ and
  // signalled through wake_fd_: freshly accepted sockets in, finished
  // connections back (rearm = park for the next request, else retire).
  struct ConnReturn {
    int fd = -1;
    bool rearm = false;
  };
  std::mutex loop_mutex_;
  std::vector<Socket> inbound_;
  std::vector<ConnReturn> returns_;
  int wake_fd_ = -1;   ///< eventfd; owned, lives from start() to stop()
  int epoll_fd_ = -1;  ///< epoll set; owned, lives from start() to stop()
  std::atomic<bool> draining_{false};   ///< stop(): close parked conns
  std::atomic<bool> loop_stop_{false};  ///< stop(): exit the loop

  std::vector<RequestSample> samples_;
  mutable std::mutex samples_mutex_;

  struct Counters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> dropped_accepts{0};
    std::atomic<std::uint64_t> rejected_503{0};
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> responses_ok{0};
    std::atomic<std::uint64_t> get_body_bytes_sent{0};
    std::atomic<std::uint64_t> post_body_bytes{0};
    std::atomic<std::uint64_t> parse_errors{0};
    std::atomic<std::uint64_t> request_errors{0};
    std::atomic<std::uint64_t> io_errors{0};
    std::atomic<std::uint64_t> timeouts_408{0};
    std::atomic<std::uint64_t> degraded_503{0};
    std::atomic<std::uint64_t> drained_503{0};
    std::atomic<std::uint64_t> gather_responses{0};
  };
  Counters counters_;

  // Observability.  owned_metrics_ must be declared before the members
  // that reference it (tracer_, gauge_regs_) so destruction unregisters
  // callbacks before the registry dies.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::vector<obs::MetricsRegistry::Registration> gauge_regs_;

  ServerStats last_run_stats_{};
  mutable std::mutex last_run_mutex_;
};

}  // namespace clio::net
