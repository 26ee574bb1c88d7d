#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string_view>
#include <vector>

namespace clio::bench {

/// The repository modules a span can be charged to.  Spans are recorded
/// by the benchmark around the calls it makes into each layer's public
/// API, never inside the library.
enum class Layer : std::uint8_t { kNet, kVm, kApps, kIo, kTrace };
inline constexpr std::size_t kLayerCount = 5;

[[nodiscard]] std::string_view layer_name(Layer layer);

/// In-memory span recorder for traced runs.  Every span's self time (its
/// duration minus the part covered by its children) is accumulated per
/// layer over all spans; the first kMaxEvents spans are also kept as
/// events for the Chrome trace file.  A disabled tracer turns every Span
/// into a no-op, so untraced runs pay one branch per call site.
class Tracer {
 public:
  static constexpr std::size_t kMaxEvents = 500;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span on the calling thread.  A span opened while no other span
  /// is open on the thread is a root and starts a new request id; nested
  /// spans inherit their parent's request id.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, Layer layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Charges `ns` of this span's duration to `layer`, as if a child span
    /// had covered it — for time a layer measured itself inside a call the
    /// benchmark cannot wrap (trace records timed by the replayer, file
    /// I/O timed by IoStats inside a managed call).
    void attribute(Layer layer, std::uint64_t ns);

   private:
    friend class Tracer;
    Tracer* tracer_ = nullptr;  ///< null: tracing disabled
    const char* name_ = nullptr;
    Layer layer_ = Layer::kNet;
    std::uint64_t id_ = 0;
    std::uint64_t request_ = 0;
    std::int64_t start_ns_ = 0;
    std::uint64_t child_ns_ = 0;
    Span* parent_ = nullptr;
  };

  /// Self time per layer over every closed span, in nanoseconds.
  [[nodiscard]] std::array<std::uint64_t, kLayerCount> self_ns() const;
  /// Summed duration of root spans — the denominator of self-time shares.
  [[nodiscard]] std::uint64_t root_ns() const {
    return root_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t spans() const {
    return spans_.load(std::memory_order_relaxed);
  }

  /// Writes the kept events in Chrome trace-event format ("X" complete
  /// events, microsecond timestamps), with the per-layer self times and
  /// span counts under "otherData".
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  struct Event {
    const char* name;
    Layer layer;
    std::uint32_t tid;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  void close(Span& span);

  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  std::array<std::atomic<std::uint64_t>, kLayerCount> self_ns_{};
  std::atomic<std::uint64_t> root_ns_{0};
  std::atomic<std::uint64_t> spans_{0};
  mutable std::mutex events_mutex_;
  std::vector<Event> events_;
};

}  // namespace clio::bench
