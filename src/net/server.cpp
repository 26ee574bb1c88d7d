#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "vm/assembler.hpp"

namespace clio::net {
namespace {

/// Managed request handlers, assembled when vm_dispatch is on.  do_get
/// opens the requested file through the syscall bridge, reads it fully into
/// a managed array and returns the array; do_post writes the posted bytes
/// to the named file.  Running these under the interpreter + JIT supplies
/// the managed-execution overhead and the first-request compile delay the
/// paper attributes to the CLI.
constexpr const char* kHandlerSource = R"(
.method do_get 1 3
  ldarg 0
  ldc 0
  syscall file_open
  stloc 0
  ldloc 0
  syscall file_size
  stloc 1
  ldloc 1
  newarr
  stloc 2
  ldloc 0
  ldloc 2
  ldloc 1
  syscall file_read
  pop
  ldloc 0
  syscall file_close
  pop
  ldloc 2
  ret
.end
.method do_post 2 1
  ldarg 0
  ldc 2
  syscall file_open
  stloc 0
  ldloc 0
  ldarg 1
  ldarg 1
  arrlen
  syscall file_write
  pop
  ldloc 0
  syscall file_close
  pop
  ldarg 1
  arrlen
  ret
.end
)";

/// Progress budget for a connection mid-request when no idle_timeout_ms is
/// configured: the event loop re-arms this deadline on every byte of
/// progress, replicating the per-recv SO_RCVTIMEO the blocking design had.
constexpr int kInRequestRecvTimeoutMs = 5000;

/// Seed of the request tracer's ID sequence (obs::RequestTracer): fixed,
/// so trace IDs are reproducible run to run.
constexpr std::uint64_t kTraceSeed = 0x7ace5eedULL;

/// How long one epoll_wait sleeps with nothing to do.  This bounds the
/// lateness of deadline expiries and of the drain escalation; events and
/// eventfd wakeups cut it short.
constexpr int kLoopTickMs = 20;

/// Most requests the loop serves off one connection per wake.  A client
/// that pipelines more is parked on the loop's ready list and served again
/// after the next epoll_wait, so other connections are answered between
/// its batches.
constexpr int kLoopRequestsPerWake = 16;

/// A fully rendered control response (the loop's 503/400/408 answers),
/// suitable for try_send_nonblock.
std::string control_response(int status, std::string_view body,
                             std::string_view extra_headers = {}) {
  return util::cat("HTTP/1.1 ", status, " ", reason_phrase(status),
                   "\r\nContent-Length: ", body.size(),
                   "\r\nContent-Type: application/octet-stream"
                   "\r\nConnection: close\r\n",
                   extra_headers, "\r\n", body);
}

/// Response head for the page-gather path, matching send_response's wire
/// format byte for byte (clients must not be able to tell the paths apart).
std::string response_head(int status, std::uint64_t content_length,
                          bool keep_alive) {
  return util::cat("HTTP/1.1 ", status, " ", reason_phrase(status),
                   "\r\nContent-Length: ", content_length,
                   "\r\nContent-Type: application/octet-stream"
                   "\r\nConnection: ",
                   keep_alive ? "keep-alive" : "close", "\r\n\r\n");
}

std::span<const std::byte> str_bytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

/// The event loop's view of a connection: each send is one non-blocking
/// gather (so one fault decision per response), and what the socket does
/// not take goes to `tail`, with anything sent after it, for a worker.
class LoopChannel final : public Channel {
 public:
  LoopChannel(Channel& inner, std::string& tail) : inner_(inner), tail_(tail) {}

  void send_all(const void* data, std::size_t n) override {
    send_gather(std::as_bytes(std::span(static_cast<const char*>(data), n)),
                {});
  }
  void send_gather(std::span<const std::byte> head,
                   std::span<const std::span<const std::byte>> parts) override {
    std::size_t took =
        tail_.empty() ? inner_.send_gather_nonblock(head, parts) : 0;
    auto keep_unsent = [&](std::span<const std::byte> piece) {
      const std::size_t skip = std::min(took, piece.size());
      took -= skip;
      tail_.append(reinterpret_cast<const char*>(piece.data()) + skip,
                   piece.size() - skip);
    };
    keep_unsent(head);
    for (const auto part : parts) keep_unsent(part);
  }
  [[nodiscard]] std::size_t recv_some(void* out, std::size_t n) override {
    return inner_.recv_some(out, n);
  }
  void close() override { inner_.close(); }
  void shutdown() override { inner_.shutdown(); }
  [[nodiscard]] bool valid() const override { return inner_.valid(); }

 private:
  Channel& inner_;
  std::string& tail_;
};

}  // namespace

/// Event-loop connection state.  The loop owns the map entry; while `busy`
/// the connection is checked out to exactly one worker, and the loop will
/// not touch anything but the fd number until the worker returns it.
/// Heap-allocated (unique_ptr in the map) so faulted/reader's references
/// into `socket` survive rehashes.
struct MiniWebServer::Conn {
  Socket socket;
  std::optional<FaultChannel> faulted;  ///< wraps socket when faults are on
  std::optional<HttpReader> reader;     ///< buffered parser over channel()
  bool busy = false;                    ///< checked out to a worker
  std::uint64_t deadline_gen = 0;       ///< matches the live heap entry
  /// Unsent bytes of a loop-served response, for a worker to finish.
  std::string tail;
  Credit tail_credit;
  bool tail_keep = false;

  Channel& channel() {
    return faulted.has_value() ? static_cast<Channel&>(*faulted) : socket;
  }
};

MiniWebServer::MiniWebServer(io::ManagedFileSystem& fs, ServerOptions options)
    : fs_(fs), options_(options) {
  util::check<util::ConfigError>(options_.worker_threads >= 1,
                                 "MiniWebServer: need at least one worker");
  util::check<util::ConfigError>(options_.max_pending >= 1,
                                 "MiniWebServer: need a nonempty queue");
  listener_ = std::make_unique<TcpListener>(options_.port);
  options_.port = listener_->port();  // keep the ephemeral pick across stop()
  if (options_.vm_dispatch) {
    engine_ = std::make_unique<vm::ExecutionEngine>(
        vm::assemble(kHandlerSource), options_.vm_options, &fs_);
  }
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = std::make_unique<obs::RequestTracer>(*metrics_, kTraceSeed);
  register_metrics();
}

MiniWebServer::~MiniWebServer() { stop(); }

std::uint16_t MiniWebServer::port() const { return listener_->port(); }

void MiniWebServer::start() {
  if (running_.exchange(true)) return;
  // A (re)started server reports this run only: stop() snapshotted the
  // previous run into last_run_stats_, so zeroing here loses nothing and
  // fixes the stale-counter carry-over across stop()/start() cycles.
  reset_stats();
  // stop() closes the listener so late connectors are refused instead of
  // parked in a backlog nobody drains; a restart re-binds the same port.
  if (!listener_->listening()) {
    listener_ = std::make_unique<TcpListener>(options_.port);
  }
  draining_.store(false, std::memory_order_release);
  loop_stop_.store(false, std::memory_order_release);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  util::check<util::IoError>(wake_fd_ >= 0, "MiniWebServer: eventfd failed");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  util::check<util::IoError>(epoll_fd_ >= 0,
                             "MiniWebServer: epoll_create1 failed");
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
  loop_thread_ = std::thread([this] { event_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void MiniWebServer::stop() {
  {
    // Cleared under queue_mutex_: a worker between its predicate check and
    // its wait would otherwise miss the only notify below and never exit.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!running_.exchange(false)) return;
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Refuse late connectors: closing the listener resets any connection
  // still parked in the backlog, so their clients error out instead of
  // blocking in recv against a server that will never accept them.
  listener_->close();
  // Requests queued but never picked up are exclusively ours now (workers
  // stop popping once running_ is false, and a queued request's connection
  // is busy-marked so the loop will not touch it either): answer each with
  // a clean 503 instead of silently dropping it.  The blocking sends are
  // bounded by SO_SNDTIMEO.
  {
    std::deque<PendingRequest> backlog;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      backlog.swap(pending_);
    }
    std::vector<ConnReturn> rets;
    rets.reserve(backlog.size());
    for (auto& queued : backlog) {
      // A queued tail's connection just closes: its client has part of a
      // body already, and a 503 after it would read as more body.
      if (queued.request.has_value()) {
        counters_.drained_503.fetch_add(1, std::memory_order_relaxed);
        try {
          send_response(queued.conn->channel(), 503, "server shutting down",
                        /*keep_alive=*/false, "Retry-After: 1\r\n");
        } catch (const std::exception&) {
        }
      }
      rets.push_back(ConnReturn{queued.conn->socket.fd(), /*rearm=*/false});
    }
    if (!rets.empty()) {
      std::lock_guard<std::mutex> lock(loop_mutex_);
      returns_.insert(returns_.end(), rets.begin(), rets.end());
    }
  }
  // Graceful drain: the loop sweeps every parked connection immediately,
  // gives in-flight requests drain_deadline_ms to finish transmitting, then
  // escalates to a full shutdown of the stragglers so the worker joins
  // below cannot hang on a peer that stopped reading.
  draining_.store(true, std::memory_order_release);
  wake_loop();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  loop_stop_.store(true, std::memory_order_release);
  wake_loop();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  // The run is over and the counters are quiesced: snapshot them so the
  // run's totals survive the reset a future start() performs.
  {
    std::lock_guard<std::mutex> lock(last_run_mutex_);
    last_run_stats_ = stats();
  }
}

void MiniWebServer::accept_loop() {
  while (running_.load()) {
    Socket client = listener_->accept(/*timeout_ms=*/20);
    if (!client.valid()) continue;
    util::Stopwatch accept_watch;  // accept return -> handed to the loop
    counters_.accepted.fetch_add(1, std::memory_order_relaxed);
    if (options_.fault_injector != nullptr &&
        options_.fault_injector->should_drop_accept()) {
      counters_.dropped_accepts.fetch_add(1, std::memory_order_relaxed);
      continue;  // client sees an immediate close
    }
    {
      std::lock_guard<std::mutex> lock(loop_mutex_);
      inbound_.push_back(std::move(client));
    }
    wake_loop();
    tracer_->record_stage(obs::Stage::kAccept,
                          static_cast<std::uint64_t>(
                              accept_watch.elapsed_ns()));
  }
}

void MiniWebServer::wake_loop() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // Best effort: the eventfd counter saturating still leaves it readable.
  [[maybe_unused]] const auto r = ::write(wake_fd_, &one, sizeof(one));
}

void MiniWebServer::event_loop() {
  // Everything below is loop-thread-local: connection ownership never
  // leaves this function except through the busy-marked worker hand-off.
  std::unordered_map<int, std::unique_ptr<Conn>> conns;

  // Progress deadlines, min-heap with lazy deletion: entries are never
  // removed, they expire against the connection's current generation.  The
  // generation counter is loop-global so an entry for a retired fd can
  // never match a new connection that reused the number.
  struct DeadlineEntry {
    std::chrono::steady_clock::time_point at;
    int fd = -1;
    std::uint64_t gen = 0;
  };
  struct DeadlineLater {
    bool operator()(const DeadlineEntry& a, const DeadlineEntry& b) const {
      return a.at > b.at;
    }
  };
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      DeadlineLater>
      deadlines;
  std::uint64_t gen_counter = 0;
  const auto progress_budget = std::chrono::milliseconds(
      options_.idle_timeout_ms > 0 ? options_.idle_timeout_ms
                                   : kInRequestRecvTimeoutMs);

  const std::string busy_503 = control_response(503, "server busy");
  const std::string stopping_503 =
      control_response(503, "server shutting down", "Retry-After: 1\r\n");
  const std::string bad_400 = control_response(400, "bad request");
  const std::string timeout_408 = control_response(408, "request timeout");

  auto retire = [&](int fd) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    conns.erase(it);  // Socket closes here
    counters_.connections.fetch_add(1, std::memory_order_relaxed);
  };

  auto rearm = [&](int fd) {
    epoll_event ev{};
    // Level-triggered oneshot: if the kernel buffer already holds bytes the
    // worker left unread, MOD re-delivers immediately — nothing is lost.
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  };

  auto arm_deadline = [&](Conn& c) {
    c.deadline_gen = ++gen_counter;
    deadlines.push(DeadlineEntry{
        std::chrono::steady_clock::now() + progress_budget, c.socket.fd(),
        c.deadline_gen});
  };

  // Queues a request, or with none the connection's tail, for a worker.
  auto enqueue = [&](Conn& c, std::optional<HttpRequest> req,
                     std::uint64_t parse_ns) {
    const int fd = c.socket.fd();
    const bool tail = !req.has_value();
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      if (!running_.load()) {
        // stop() cleared running_ under this lock and takes the queue
        // once: a request queued after that is popped by no worker, the
        // loop frees its connection on exit, and a restarted server's
        // worker would find a dangling Conn.  Answer it as stop() answers
        // the backlog (a tail's connection just closes).
        lock.unlock();
        if (!tail) {
          counters_.drained_503.fetch_add(1, std::memory_order_relaxed);
          try_send_nonblock(fd, stopping_503);
        }
        retire(fd);
        return;
      }
      // A tail may exceed max_pending: a started response cannot be
      // refused.
      if (!tail && pending_.size() >= options_.max_pending) {
        lock.unlock();
        // Backpressure: answer 503 without blocking the loop.  A peer that
        // stopped reading must cost nothing — the bytes go out only as far
        // as the socket buffer allows (which, for a connection idle enough
        // to be rejected, is always the whole small response).
        counters_.rejected_503.fetch_add(1, std::memory_order_relaxed);
        try_send_nonblock(fd, busy_503);
        retire(fd);
        return;
      }
      c.busy = true;
      (tail ? counters_.loop_tails : counters_.requests)
          .fetch_add(1, std::memory_order_relaxed);
      pending_.push_back(PendingRequest{&c, std::move(req),
                                        util::Stopwatch::now_ns(), parse_ns});
    }
    queue_cv_.notify_one();
  };

  // Connections that used up their request budget with more buffered:
  // not armed in epoll, served again after the next epoll_wait.
  std::vector<int> ready;

  auto handle_readable = [&](int fd) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;  // stale event for a retired fd
    Conn& c = *it->second;
    if (c.busy) return;  // stale event; the worker owns this connection
    bool closed = false;
    for (int served = 0;; ++served) {
      if (served == kLoopRequestsPerWake) {
        // Park without a deadline: the connection is making progress.
        c.deadline_gen = ++gen_counter;
        ready.push_back(fd);
        return;
      }
      util::Stopwatch parse_watch;
      std::optional<HttpRequest> request;
      try {
        while (true) {
          request = c.reader->poll_request();
          if (request.has_value()) break;
          char buf[16384];
          const std::ptrdiff_t r =
              c.channel().recv_nonblock(buf, sizeof(buf));
          if (r < 0) break;  // drained the kernel buffer, no full request
          if (r == 0) {
            closed = true;
            break;
          }
          c.reader->feed(buf, static_cast<std::size_t>(r));
        }
      } catch (const util::ParseError&) {
        counters_.parse_errors.fetch_add(1, std::memory_order_relaxed);
        try_send_nonblock(fd, bad_400);
        retire(fd);
        return;
      } catch (const std::exception&) {
        // Connection-level failure (real or injected EIO): tear it down.
        counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
        retire(fd);
        return;
      }
      if (!request.has_value()) break;
      const auto parse_ns =
          static_cast<std::uint64_t>(parse_watch.elapsed_ns());
      bool keep = false;
      if (!try_serve_on_loop(c, *request, parse_ns, keep)) {
        enqueue(c, std::move(request), parse_ns);
        return;
      }
      if (!c.tail.empty()) {
        enqueue(c, std::nullopt, 0);
        return;
      }
      if (!keep) {
        retire(fd);
        return;
      }
      // Served: a pipelined request may already be buffered.
    }
    if (closed) {
      if (c.reader->has_partial()) {
        // Peer closed mid-message: the bytes can never parse.
        counters_.parse_errors.fetch_add(1, std::memory_order_relaxed);
      }
      retire(fd);
      return;
    }
    // Would-block with bytes of progress (or none): re-arm for more and
    // refresh the progress deadline — every readable event that did not
    // complete a request restarts the budget, exactly like the per-recv
    // SO_RCVTIMEO the blocking design armed.
    rearm(fd);
    arm_deadline(c);
  };

  bool drain_swept = false;
  bool escalated = false;
  std::chrono::steady_clock::time_point escalate_at{};

  while (true) {
    epoll_event events[256];
    const int n = ::epoll_wait(epoll_fd_, events, 256,
                               ready.empty() ? kLoopTickMs : 0);
    if (n < 0 && errno != EINTR) break;  // epoll set died; stop() cleans up

    // 1. Drain the wakeup counter so the eventfd goes quiet again.
    for (int i = 0; i < (n > 0 ? n : 0); ++i) {
      if (events[i].data.fd == wake_fd_) {
        std::uint64_t count = 0;
        [[maybe_unused]] const auto r =
            ::read(wake_fd_, &count, sizeof(count));
      }
    }

    // 2. Returns from workers: park (re-arm) or retire each connection.
    {
      std::vector<ConnReturn> rets;
      {
        std::lock_guard<std::mutex> lock(loop_mutex_);
        rets.swap(returns_);
      }
      for (const ConnReturn ret : rets) {
        const auto it = conns.find(ret.fd);
        if (it == conns.end()) continue;
        Conn& c = *it->second;
        c.busy = false;
        if (!ret.rearm || draining_.load(std::memory_order_acquire)) {
          retire(ret.fd);
          continue;
        }
        rearm(ret.fd);
        arm_deadline(c);
      }
    }

    // 3. Readiness events (after returns so a conn returned and instantly
    // readable is served this very iteration; before inbound so a stale
    // event can never hit a fresh connection that reused the fd).
    for (int i = 0; i < (n > 0 ? n : 0); ++i) {
      if (events[i].data.fd == wake_fd_) continue;
      // EPOLLHUP/EPOLLRDHUP/EPOLLERR all resolve through a read attempt:
      // recv reports the close or the error precisely.
      handle_readable(events[i].data.fd);
    }
    // Then the connections parked last wake, behind every event.
    if (!ready.empty()) {
      std::vector<int> parked;
      parked.swap(ready);
      for (const int fd : parked) handle_readable(fd);
    }

    // 4. Admit freshly accepted connections.
    {
      std::vector<Socket> fresh;
      {
        std::lock_guard<std::mutex> lock(loop_mutex_);
        fresh.swap(inbound_);
      }
      for (Socket& s : fresh) {
        if (draining_.load(std::memory_order_acquire)) continue;  // closes
        if (options_.max_connections != 0 &&
            conns.size() >= options_.max_connections) {
          // fd backpressure, the accept-path sibling of the queue's 503.
          counters_.rejected_503.fetch_add(1, std::memory_order_relaxed);
          try_send_nonblock(s.fd(), busy_503);
          continue;  // Socket closes on scope exit
        }
        const int fd = s.fd();
        auto conn = std::make_unique<Conn>();
        conn->socket = std::move(s);
        if (options_.fault_injector != nullptr) {
          conn->faulted.emplace(conn->socket, *options_.fault_injector);
        }
        conn->reader.emplace(conn->channel());
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
        ev.data.fd = fd;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
          counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
          continue;  // drop it; Socket closes on scope exit
        }
        Conn& ref = *conn;
        conns.emplace(fd, std::move(conn));
        arm_deadline(ref);
      }
    }

    // 5. Expire progress deadlines (lazy deletion: only an entry whose
    // generation still matches its parked connection is live).
    {
      const auto now = std::chrono::steady_clock::now();
      while (!deadlines.empty() && deadlines.top().at <= now) {
        const DeadlineEntry entry = deadlines.top();
        deadlines.pop();
        const auto it = conns.find(entry.fd);
        if (it == conns.end()) continue;
        Conn& c = *it->second;
        if (c.busy || c.deadline_gen != entry.gen) continue;
        if (c.reader->has_partial()) {
          // The peer stalled mid-request: answer 408 and close.
          counters_.timeouts_408.fetch_add(1, std::memory_order_relaxed);
          try_send_nonblock(entry.fd, timeout_408);
        }
        // Idle keep-alive connection aging out: a non-event, closed cleanly.
        retire(entry.fd);
      }
    }

    // 6. Drain choreography for stop(): one immediate sweep of every parked
    // connection, then an escalation deadline for the in-flight stragglers.
    if (draining_.load(std::memory_order_acquire)) {
      const auto now = std::chrono::steady_clock::now();
      if (!drain_swept) {
        drain_swept = true;
        escalate_at =
            now + std::chrono::milliseconds(options_.drain_deadline_ms);
        std::vector<int> parked;
        parked.reserve(conns.size());
        for (const auto& [fd, c] : conns) {
          if (!c->busy) parked.push_back(fd);
        }
        for (const int fd : parked) retire(fd);
      } else if (!escalated && now >= escalate_at) {
        escalated = true;
        // Workers blocked sending to a dead-reading peer fail fast now.
        for (const auto& [fd, c] : conns) shutdown_connection(fd);
      }
    }

    if (loop_stop_.load(std::memory_order_acquire)) break;
  }

  // Workers are joined by the time loop_stop_ is set: every connection
  // still here is ours to close.
  for (const auto& [fd, c] : conns) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    counters_.connections.fetch_add(1, std::memory_order_relaxed);
  }
  conns.clear();
}

void MiniWebServer::worker_loop() {
  while (true) {
    PendingRequest pr;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !running_.load() || !pending_.empty();
      });
      if (!running_.load()) return;  // stop() 503s whatever is queued
      pr = std::move(pending_.front());
      pending_.pop_front();
    }
    Conn& conn = *pr.conn;
    bool retire = false;
    if (pr.request.has_value()) {
      const std::int64_t waited = util::Stopwatch::now_ns() - pr.enqueued_ns;
      tracer_->record_stage(obs::Stage::kQueueWait,
                            waited > 0 ? static_cast<std::uint64_t>(waited)
                                       : 0);
    } else {
      // The tail of a response the loop started, sent on the blocking
      // path.  Straight to the socket, past any fault decorator: the
      // response took its one fault decision on the loop.
      try {
        conn.socket.send_all(conn.tail.data(), conn.tail.size());
        credit(conn.tail_credit);
        retire = !conn.tail_keep;
      } catch (const std::exception&) {
        counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
        retire = true;
      }
      conn.tail.clear();
    }
    if (!retire) {
      process_request(conn, std::move(pr.request), pr.parse_ns, retire);
    }
    {
      std::lock_guard<std::mutex> lock(loop_mutex_);
      returns_.push_back(ConnReturn{conn.socket.fd(), !retire});
    }
    wake_loop();
  }
}

void MiniWebServer::process_request(Conn& conn,
                                    std::optional<HttpRequest> current,
                                    std::uint64_t parse_ns, bool& retire) {
  while (true) {
    if (!current.has_value()) {
      // Inline-drain: a pipelined request already complete in the reader's
      // buffer needs no socket I/O, so serve it here instead of bouncing
      // the connection through the loop (whose idle deadline must never
      // apply to bytes that have already arrived — the old design's 408
      // bug).
      util::Stopwatch parse_watch;
      try {
        current = conn.reader->poll_request();
      } catch (const util::ParseError&) {
        counters_.parse_errors.fetch_add(1, std::memory_order_relaxed);
        try {
          send_response(conn.channel(), 400, "bad request",
                        /*keep_alive=*/false);
        } catch (const std::exception&) {
        }
        retire = true;
        return;
      }
      if (!current.has_value()) return;  // loop re-arms and waits for bytes
      counters_.requests.fetch_add(1, std::memory_order_relaxed);
      parse_ns = static_cast<std::uint64_t>(parse_watch.elapsed_ns());
    }
    if (!serve_one(conn, conn.channel(), *current, parse_ns, nullptr)) {
      retire = true;
      return;
    }
    current.reset();
  }
}

bool MiniWebServer::serve_one(Conn& conn, Channel& channel,
                              const HttpRequest& request,
                              std::uint64_t parse_ns, GetBody* claimed) {
  const bool keep = request.keep_alive && running_.load();
  Credit served;
  try {
    // The request exists: open its trace.  Parse happened before the
    // trace could (the bytes define the request), so its duration is
    // recorded directly.
    obs::TraceScope trace(*tracer_);
    tracer_->record_stage(obs::Stage::kParse, parse_ns);
    obs::SpanScope handler_span(obs::Stage::kHandler);
    served = dispatch(channel, request, keep, claimed);
  } catch (const std::exception&) {
    // Connection-level failure (real or injected EIO): tear the
    // connection down; the request mix soak counts these against the
    // injector stats.
    counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
    conn.tail.clear();
    return false;
  }
  if (conn.tail.empty()) {
    credit(served);
  } else {
    conn.tail_credit = served;
    conn.tail_keep = keep;
  }
  return keep;
}

bool MiniWebServer::try_serve_on_loop(Conn& conn, const HttpRequest& request,
                                      std::uint64_t parse_ns, bool& keep) {
  if (request.method != "GET") return false;
  std::optional<GetBody> body;
  // dispatch() routes the introspection endpoints before any storage.
  if (request.path != "/healthz" && request.path != "/metrics" &&
      request.path != "/statz") {
    if (options_.vm_dispatch) return false;
    // A name the store does not know would cost a stat, a file the pool
    // may hold dirty pages of would flush on close, and a file whose first
    // page is cold would be opened only to be declined.
    const std::string name = request.file_name();
    io::BufferPool& pool = fs_.pool();
    const io::FileId id =
        name.empty() ? io::kInvalidFile : fs_.store().lookup(name);
    if (id == io::kInvalidFile || pool.may_be_dirty(id) ||
        !pool.contains(id, 0)) {
      return false;
    }
    try {
      util::Stopwatch file_watch;
      io::ManagedFile file = fs_.open(name, io::OpenMode::kRead);
      const std::uint64_t size = file.size();
      const auto pages = static_cast<std::size_t>(
          (size + pool.page_size() - 1) / pool.page_size());
      if (size == 0 || pages > gather_cap_pages(pool.capacity_pages(),
                                                options_.worker_threads)) {
        return false;  // a buffered GET
      }
      auto pinned = pool.try_pin_span(file.id(), 0, pages - 1);
      if (pinned.empty()) return false;  // a page is cold or mid-load
      file.close();
      body.emplace();
      body->bytes = size;
      body->pages = std::move(pinned);
      body->file_ns = static_cast<std::uint64_t>(file_watch.elapsed_ns());
    } catch (const std::exception&) {
      return false;  // a worker meets the failure and answers it
    }
  }
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  counters_.loop_served.fetch_add(1, std::memory_order_relaxed);
  LoopChannel channel(conn.channel(), conn.tail);
  keep = serve_one(conn, channel, request, parse_ns,
                   body.has_value() ? &*body : nullptr);
  return true;  // the pins drop here; a tail holds copies of its bytes
}

void MiniWebServer::credit(const Credit& served) {
  if (!served.ok) return;
  // Served-byte accounting happens only after the whole response left: a
  // torn send must not count.  responses_ok goes last, so whoever sees it
  // tick sees the rest.
  counters_.gather_responses.fetch_add(served.gather ? 1 : 0,
                                       std::memory_order_relaxed);
  counters_.get_body_bytes_sent.fetch_add(served.get_body_bytes,
                                          std::memory_order_relaxed);
  counters_.post_body_bytes.fetch_add(served.post_body_bytes,
                                      std::memory_order_relaxed);
  counters_.responses_ok.fetch_add(1, std::memory_order_relaxed);
}

MiniWebServer::Credit MiniWebServer::dispatch(Channel& channel,
                                              const HttpRequest& request,
                                              bool keep, GetBody* claimed) {
  // Arm the per-request budget as this thread's ambient deadline: every
  // storage call below it — pool miss loads, RetryingStore backoff sleeps —
  // honors it without signature plumbing.
  std::optional<util::DeadlineScope> budget;
  if (options_.request_deadline_ms > 0) {
    budget.emplace(util::Deadline::after_ms(options_.request_deadline_ms));
  }
  try {
    // Introspection endpoints route before the degraded-mode short-circuit:
    // an operator diagnosing an open breaker needs /metrics and /statz to
    // answer precisely while file traffic is being 503'd.
    if (request.method == "GET" && request.path == "/healthz") {
      return do_healthz(channel, keep);
    }
    if (request.method == "GET" && request.path == "/metrics") {
      return do_metrics(channel, keep);
    }
    if (request.method == "GET" && request.path == "/statz") {
      return do_statz(channel, keep);
    }
    // Degraded mode: while the storage breaker is open, answer file
    // requests immediately with 503 + Retry-After instead of queueing
    // work against a store known to be sick.
    if (options_.breaker != nullptr &&
        options_.breaker->state() == util::CircuitBreaker::State::kOpen) {
      counters_.degraded_503.fetch_add(1, std::memory_order_relaxed);
      send_response(channel, 503, "storage degraded", keep,
                    retry_after_header());
      return {};
    }
    if (request.method == "GET") return do_get(channel, request, keep, claimed);
    if (request.method == "POST") return do_post(channel, request, keep);
    send_response(channel, 405, "method not allowed", keep);
  } catch (const util::IoError&) {
    throw;  // socket-level: the connection is gone, abort it
  } catch (const std::exception&) {
    counters_.request_errors.fetch_add(1, std::memory_order_relaxed);
    send_response(channel, 500, "internal error", keep);
  }
  return {};
}

MiniWebServer::Credit MiniWebServer::do_healthz(Channel& channel, bool keep) {
  using State = util::CircuitBreaker::State;
  const State state = options_.breaker != nullptr ? options_.breaker->state()
                                                  : State::kClosed;
  const bool ready = state != State::kOpen;
  const std::string body =
      util::cat("status=", ready ? "ok" : "degraded",
                " breaker=", util::circuit_state_name(state), "\n");
  if (ready) {
    send_response(channel, 200, body, keep);
    return {.ok = true};
  }
  counters_.degraded_503.fetch_add(1, std::memory_order_relaxed);
  send_response(channel, 503, body, keep, retry_after_header());
  return {};
}

MiniWebServer::Credit MiniWebServer::do_metrics(Channel& channel, bool keep) {
  std::ostringstream body;
  metrics_->render_prometheus(body);
  send_response(channel, 200, body.str(), keep);
  // Introspection responses are 2xx but never count into
  // get_body_bytes_sent: that counter is the served-byte oracle for file
  // bodies, and scrapes must not perturb it.
  return {.ok = true};
}

MiniWebServer::Credit MiniWebServer::do_statz(Channel& channel, bool keep) {
  send_response(channel, 200, render_statz(), keep);
  return {.ok = true};
}

const MiniWebServer::CounterField MiniWebServer::kCounterFields[] = {
    {"accepted", &ServerStats::accepted, &Counters::accepted},
    {"dropped_accepts", &ServerStats::dropped_accepts,
     &Counters::dropped_accepts},
    {"rejected_503", &ServerStats::rejected_503, &Counters::rejected_503},
    {"connections", &ServerStats::connections, &Counters::connections},
    {"requests", &ServerStats::requests, &Counters::requests},
    {"responses_ok", &ServerStats::responses_ok, &Counters::responses_ok},
    {"get_body_bytes_sent", &ServerStats::get_body_bytes_sent,
     &Counters::get_body_bytes_sent},
    {"post_body_bytes", &ServerStats::post_body_bytes,
     &Counters::post_body_bytes},
    {"parse_errors", &ServerStats::parse_errors, &Counters::parse_errors},
    {"request_errors", &ServerStats::request_errors,
     &Counters::request_errors},
    {"io_errors", &ServerStats::io_errors, &Counters::io_errors},
    {"timeouts_408", &ServerStats::timeouts_408, &Counters::timeouts_408},
    {"degraded_503", &ServerStats::degraded_503, &Counters::degraded_503},
    {"drained_503", &ServerStats::drained_503, &Counters::drained_503},
    {"gather_responses", &ServerStats::gather_responses,
     &Counters::gather_responses},
    {"loop_served", &ServerStats::loop_served, &Counters::loop_served},
    {"loop_tails", &ServerStats::loop_tails, &Counters::loop_tails},
};

std::string MiniWebServer::render_statz() const {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("running", running_.load());
  w.kv("port", static_cast<std::uint64_t>(options_.port));

  auto write_stats = [&w](const ServerStats& s) {
    w.begin_object();
    for (const CounterField& f : kCounterFields) w.kv(f.name, s.*f.snapshot);
    w.end_object();
  };
  w.key("server");
  write_stats(stats());
  w.key("last_run");
  write_stats(last_run_stats());

  {
    const io::BufferPool& pool = fs_.pool();
    const io::PoolStats ps = pool.stats();
    const auto resident = static_cast<std::uint64_t>(pool.resident_pages());
    const auto capacity = static_cast<std::uint64_t>(pool.capacity_pages());
    w.key("pool");
    w.begin_object();
    w.kv("resident_pages", resident);
    w.kv("capacity_pages", capacity);
    w.kv("occupancy",
         capacity > 0 ? static_cast<double>(resident) /
                            static_cast<double>(capacity)
                      : 0.0);
    w.kv("hits", ps.hits);
    w.kv("misses", ps.misses);
    w.kv("evictions", ps.evictions);
    w.kv("writebacks", ps.writebacks);
    w.kv("seek_touches", ps.prefetches);
    w.kv("flush_write_calls", ps.flush_write_calls);
    w.kv("flush_write_pages", ps.flush_write_pages);
    w.kv("gather_read_calls", ps.gather_read_calls);
    w.kv("gather_read_pages", ps.gather_read_pages);
    w.kv("direct_read_calls", ps.direct_read_calls);
    w.kv("direct_read_pages", ps.direct_read_pages);
    w.kv("direct_write_calls", ps.direct_write_calls);
    w.kv("direct_write_pages", ps.direct_write_pages);
    w.end_object();
  }

  w.key("breaker");
  if (options_.breaker != nullptr) {
    const auto state = options_.breaker->state();
    const auto bs = options_.breaker->stats();
    w.begin_object();
    w.kv("state", util::circuit_state_name(state));
    w.kv("successes", bs.successes);
    w.kv("failures", bs.failures);
    w.kv("trips", bs.trips);
    w.kv("fast_fails", bs.fast_fails);
    w.kv("probes", bs.probes);
    w.kv("retry_after_ms", options_.breaker->retry_after_ms());
    w.end_object();
  } else {
    w.null();
  }

  {
    const io::IoStats& io_stats = fs_.stats();
    w.key("io");
    w.begin_object();
    w.key("ops");
    w.begin_object();
    for (std::size_t i = 0; i < io::kIoOpCount; ++i) {
      const auto op = static_cast<io::IoOp>(i);
      const io::OpSnapshot snap = io_stats.op_snapshot(op);
      if (snap.count == 0 && snap.bytes == 0) continue;
      w.key(io::io_op_name(op));
      w.begin_object();
      w.kv("count", snap.count);
      w.kv("timed", snap.timed);
      w.kv("mean_ms", snap.mean_ms);
      w.kv("min_ms", snap.min_ms);
      w.kv("max_ms", snap.max_ms);
      w.kv("bytes", snap.bytes);
      w.end_object();
    }
    w.end_object();
    const io::ResilienceCounters rc = io_stats.resilience();
    w.key("resilience");
    w.begin_object();
    w.kv("retries", rc.retries);
    w.kv("absorbed_faults", rc.absorbed_faults);
    w.kv("breaker_trips", rc.breaker_trips);
    w.kv("breaker_fast_fails", rc.breaker_fast_fails);
    w.kv("deadline_expiries", rc.deadline_expiries);
    w.end_object();
    w.end_object();
  }

  {
    // Per-stage latency quantiles straight from the tracer's timers.
    w.key("stages");
    w.begin_object();
    for (std::size_t i = 0; i < obs::kStageCount; ++i) {
      const auto stage = static_cast<obs::Stage>(i);
      const std::string timer_name =
          "clio_request_stage_" + std::string(obs::stage_name(stage)) +
          "_ns";
      w.key(obs::stage_name(stage));
      obs::write_histogram_json(w, metrics_->timer(timer_name).snapshot());
    }
    w.end_object();
  }

  w.key("traces");
  w.begin_object();
  w.kv("started", tracer_->traces_started());
  w.kv("spans_opened", tracer_->spans_opened());
  w.kv("spans_closed", tracer_->spans_closed());
  w.end_object();

  w.end_object();
  return out.str();
}

void MiniWebServer::register_metrics() {
  auto reg = [this](std::string_view name, obs::MetricKind kind,
                    std::function<double()> fn) {
    gauge_regs_.push_back(
        metrics_->register_callback(name, kind, std::move(fn)));
  };
  for (const CounterField& f : kCounterFields) {
    const std::atomic<std::uint64_t>& slot = counters_.*f.live;
    reg(util::cat("clio_server_", f.name, "_total"), obs::MetricKind::kCounter,
        [&slot] {
          return static_cast<double>(slot.load(std::memory_order_relaxed));
        });
  }

  io::BufferPool& pool = fs_.pool();
  reg("clio_pool_resident_pages", obs::MetricKind::kGauge,
      [&pool] { return static_cast<double>(pool.resident_pages()); });
  reg("clio_pool_capacity_pages", obs::MetricKind::kGauge,
      [&pool] { return static_cast<double>(pool.capacity_pages()); });
  reg("clio_pool_occupancy_ratio", obs::MetricKind::kGauge, [&pool] {
    const auto capacity = pool.capacity_pages();
    if (capacity == 0) return 0.0;
    return static_cast<double>(pool.resident_pages()) /
           static_cast<double>(capacity);
  });
  reg("clio_pool_hits_total", obs::MetricKind::kCounter,
      [&pool] { return static_cast<double>(pool.stats().hits); });
  reg("clio_pool_misses_total", obs::MetricKind::kCounter,
      [&pool] { return static_cast<double>(pool.stats().misses); });
  reg("clio_pool_evictions_total", obs::MetricKind::kCounter,
      [&pool] { return static_cast<double>(pool.stats().evictions); });
  reg("clio_pool_writebacks_total", obs::MetricKind::kCounter,
      [&pool] { return static_cast<double>(pool.stats().writebacks); });
  reg("clio_pool_seek_touches_total", obs::MetricKind::kCounter,
      [&pool] { return static_cast<double>(pool.stats().prefetches); });
  reg("clio_pool_direct_reads_total", obs::MetricKind::kCounter,
      [&pool] { return static_cast<double>(pool.stats().direct_read_calls); });
  reg("clio_pool_direct_read_pages_total", obs::MetricKind::kCounter,
      [&pool] { return static_cast<double>(pool.stats().direct_read_pages); });
  reg("clio_pool_direct_writes_total", obs::MetricKind::kCounter,
      [&pool] { return static_cast<double>(pool.stats().direct_write_calls); });
  reg("clio_pool_direct_write_pages_total", obs::MetricKind::kCounter,
      [&pool] { return static_cast<double>(pool.stats().direct_write_pages); });

  const io::IoStats& io_stats = fs_.stats();
  reg("clio_io_read_ops_total", obs::MetricKind::kCounter, [&io_stats] {
    return static_cast<double>(io_stats.op_snapshot(io::IoOp::kRead).count);
  });
  reg("clio_io_read_bytes_total", obs::MetricKind::kCounter, [&io_stats] {
    return static_cast<double>(io_stats.op_snapshot(io::IoOp::kRead).bytes);
  });
  reg("clio_io_write_ops_total", obs::MetricKind::kCounter, [&io_stats] {
    return static_cast<double>(io_stats.op_snapshot(io::IoOp::kWrite).count);
  });
  reg("clio_io_write_bytes_total", obs::MetricKind::kCounter, [&io_stats] {
    return static_cast<double>(io_stats.op_snapshot(io::IoOp::kWrite).bytes);
  });
  reg("clio_io_retries_total", obs::MetricKind::kCounter,
      [&io_stats] {
        return static_cast<double>(io_stats.resilience().retries);
      });
  reg("clio_io_absorbed_faults_total", obs::MetricKind::kCounter,
      [&io_stats] {
        return static_cast<double>(io_stats.resilience().absorbed_faults);
      });
  reg("clio_io_deadline_expiries_total", obs::MetricKind::kCounter,
      [&io_stats] {
        return static_cast<double>(io_stats.resilience().deadline_expiries);
      });

  if (options_.breaker != nullptr) {
    util::CircuitBreaker* breaker = options_.breaker;
    reg("clio_breaker_state", obs::MetricKind::kGauge, [breaker] {
      return static_cast<double>(breaker->state());
    });
    reg("clio_breaker_trips_total", obs::MetricKind::kCounter,
        [breaker] { return static_cast<double>(breaker->stats().trips); });
    reg("clio_breaker_fast_fails_total", obs::MetricKind::kCounter,
        [breaker] {
          return static_cast<double>(breaker->stats().fast_fails);
        });
  }
}

std::string MiniWebServer::retry_after_header() const {
  if (options_.breaker == nullptr) return {};
  // Whole seconds, rounded up: Retry-After's wire granularity — a breaker
  // half a cooldown from probing still tells clients "at least 1 s".
  const double ms = options_.breaker->retry_after_ms();
  const auto secs = static_cast<std::uint64_t>((ms + 999.0) / 1000.0);
  return util::cat("Retry-After: ", secs > 0 ? secs : 1, "\r\n");
}

std::string MiniWebServer::read_file_vm(const std::string& name) {
  const auto result = engine_->call(
      "do_get", {vm::Value::from_obj(std::make_shared<vm::Obj>(name))});
  const auto& arr = result.as_obj()->arr();
  std::string content(arr.size(), '\0');
  for (std::size_t i = 0; i < arr.size(); ++i) {
    content[i] = static_cast<char>(arr[i].as_int() & 0xff);
  }
  return content;
}

std::size_t MiniWebServer::gather_cap_pages(std::size_t pool_capacity_pages,
                                           std::size_t worker_threads) {
  return std::min<std::size_t>(
      64,
      std::max<std::size_t>(1, pool_capacity_pages / (2 * worker_threads)));
}

MiniWebServer::Credit MiniWebServer::do_get(Channel& channel,
                                            const HttpRequest& request,
                                            bool keep, GetBody* claimed) {
  RequestSample sample;
  sample.is_get = true;
  util::Stopwatch total;
  const std::string name = request.file_name();
  if (name.empty() || (claimed == nullptr && !fs_.exists(name))) {
    send_response(channel, 404, "no such file", keep);
    return {};
  }

  // Timed portion, as in the paper: open the stream, get at the data,
  // close the stream.  For a loop-served GET the loop did it before the
  // trace began, and its time is recorded here.  Storage failures convert
  // to responses here — the connection is healthy, the store is not — so
  // only socket-level errors escape to the connection teardown path.  The
  // body rides one of two paths: a native GET whose pages fit the pin cap
  // pins them and gathers them straight into the socket; everything else
  // (vm_dispatch, oversized and empty files) is read into one buffer
  // first.
  GetBody loaded;
  GetBody& body = claimed != nullptr ? *claimed : loaded;
  if (claimed != nullptr) {
    tracer_->record_stage(obs::Stage::kStorageOp, body.file_ns);
  } else {
    try {
      obs::SpanScope storage_span(obs::Stage::kStorageOp);
      util::Stopwatch file_watch;
      if (options_.vm_dispatch) {
        body.buffered = read_file_vm(name);
        body.bytes = body.buffered.size();
      } else {
        io::ManagedFile file = fs_.open(name, io::OpenMode::kRead);
        body.bytes = file.size();
        io::BufferPool& pool = fs_.pool();
        const std::size_t page_size = pool.page_size();
        const auto page_count = static_cast<std::size_t>(
            (body.bytes + page_size - 1) / page_size);
        if (body.bytes > 0 &&
            page_count <= gather_cap_pages(pool.capacity_pages(),
                                           options_.worker_threads)) {
          // Pinning the whole file as one span loads its cold pages in one
          // coalesced readv, each counted once as a miss.
          body.pages.reserve(page_count);
          for (std::size_t p = 0; p < page_count; ++p) {
            body.pages.push_back(pool.pin_span(file.id(), p, page_count - 1));
          }
        } else {
          body.buffered.assign(static_cast<std::size_t>(body.bytes), '\0');
          file.read_exact(std::as_writable_bytes(
              std::span<char>(body.buffered.data(), body.buffered.size())));
        }
        file.close();
      }
      body.file_ns = static_cast<std::uint64_t>(file_watch.elapsed_ns());
    } catch (const util::TransientIoError&) {
      // Retries exhausted, breaker fast-fail or deadline blown: degrade.
      counters_.degraded_503.fetch_add(1, std::memory_order_relaxed);
      send_response(channel, 503, "storage unavailable", keep,
                    retry_after_header());
      return {};
    } catch (const util::IoError&) {
      counters_.request_errors.fetch_add(1, std::memory_order_relaxed);
      send_response(channel, 500, "storage error", keep);
      return {};
    }
  }
  sample.file_ms = static_cast<double>(body.file_ns) / 1e6;
  sample.bytes = body.bytes;
  sample.total_ms =
      total.elapsed_ms() + (claimed != nullptr ? sample.file_ms : 0.0);
  // Record before transmitting so samples appear in request order even if
  // this thread is preempted mid-send.
  record(sample);
  obs::SpanScope send_span(obs::Stage::kSend);
  if (body.pages.empty()) {
    send_response(channel, 200, body.buffered, keep);
    return {.ok = true, .get_body_bytes = body.bytes};
  }
  std::vector<std::span<const std::byte>> parts;
  parts.reserve(body.pages.size());
  std::uint64_t remaining = body.bytes;
  for (const io::BufferPool::PageGuard& page : body.pages) {
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, page.data().size()));
    parts.push_back(page.data().first(take));
    remaining -= take;
  }
  const std::string head = response_head(200, body.bytes, keep);
  channel.send_gather(str_bytes(head), parts);
  return {.ok = true, .gather = true, .get_body_bytes = body.bytes};
}

MiniWebServer::Credit MiniWebServer::do_post(Channel& channel,
                                             const HttpRequest& request,
                                             bool keep) {
  RequestSample sample;
  sample.is_get = false;
  util::Stopwatch total;
  // "The data is written to a new file created by using a random number
  // generator" — a unique counter-derived name keeps writers disjoint.
  const std::uint64_t id =
      post_counter_.fetch_add(1, std::memory_order_relaxed) * 2654435761u;
  const std::string name = "post_" + std::to_string(id % 100000000) + ".dat";
  try {
    obs::SpanScope storage_span(obs::Stage::kStorageOp);
    util::Stopwatch file_watch;
    if (options_.vm_dispatch) {
      std::vector<vm::Value> bytes(request.body.size());
      for (std::size_t i = 0; i < request.body.size(); ++i) {
        bytes[i] = vm::Value::from_int(
            static_cast<unsigned char>(request.body[i]));
      }
      engine_->call("do_post",
                    {vm::Value::from_obj(std::make_shared<vm::Obj>(name)),
                     vm::Value::from_obj(
                         std::make_shared<vm::Obj>(std::move(bytes)))});
    } else {
      auto file = fs_.open(name, io::OpenMode::kTruncate);
      file.write(std::as_bytes(
          std::span<const char>(request.body.data(), request.body.size())));
      file.close();
    }
    sample.file_ms = file_watch.elapsed_ms();
  } catch (const util::TransientIoError&) {
    counters_.degraded_503.fetch_add(1, std::memory_order_relaxed);
    send_response(channel, 503, "storage unavailable", keep,
                  retry_after_header());
    return {};
  } catch (const util::IoError&) {
    // Torn write / disk full: the store answered definitively, the
    // client's payload did not land — a 500, not a teardown.
    counters_.request_errors.fetch_add(1, std::memory_order_relaxed);
    send_response(channel, 500, "storage error", keep);
    return {};
  }
  sample.bytes = request.body.size();
  sample.total_ms = total.elapsed_ms();
  record(sample);
  obs::SpanScope send_span(obs::Stage::kSend);
  send_response(channel, 201, name, keep);
  return {.ok = true, .post_body_bytes = request.body.size()};
}

void MiniWebServer::record(RequestSample sample) {
  if (!record_samples_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(samples_mutex_);
  samples_.push_back(sample);
}

std::vector<RequestSample> MiniWebServer::samples() const {
  std::lock_guard<std::mutex> lock(samples_mutex_);
  return samples_;
}

void MiniWebServer::clear_samples() {
  std::lock_guard<std::mutex> lock(samples_mutex_);
  samples_.clear();
}

ServerStats MiniWebServer::stats() const {
  ServerStats s;
  for (const CounterField& f : kCounterFields) {
    s.*f.snapshot = (counters_.*f.live).load();
  }
  return s;
}

void MiniWebServer::reset_stats() {
  for (const CounterField& f : kCounterFields) {
    (counters_.*f.live).store(0, std::memory_order_relaxed);
  }
  clear_samples();
}

ServerStats MiniWebServer::last_run_stats() const {
  std::lock_guard<std::mutex> lock(last_run_mutex_);
  return last_run_stats_;
}

void MiniWebServer::make_cold() {
  if (engine_ != nullptr) engine_->flush_jit_cache();
  fs_.drop_caches();
}

}  // namespace clio::net
