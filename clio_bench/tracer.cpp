#include "tracer.hpp"

#include <algorithm>
#include <fstream>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace clio::bench {
namespace {

thread_local Tracer::Span* tl_open_span = nullptr;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::string_view layer_name(Layer layer) {
  switch (layer) {
    case Layer::kNet: return "net";
    case Layer::kVm: return "vm";
    case Layer::kApps: return "apps";
    case Layer::kIo: return "io";
    case Layer::kTrace: return "trace";
  }
  return "?";
}

Tracer::Span::Span(Tracer& tracer, const char* name, Layer layer) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  name_ = name;
  layer_ = layer;
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = tl_open_span;
  request_ = parent_ != nullptr ? parent_->request_ : id_;
  tl_open_span = this;
  start_ns_ = util::Stopwatch::now_ns();
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(*this);
}

void Tracer::Span::attribute(Layer layer, std::uint64_t ns) {
  if (tracer_ == nullptr) return;
  child_ns_ += ns;
  tracer_->self_ns_[static_cast<std::size_t>(layer)].fetch_add(
      ns, std::memory_order_relaxed);
}

void Tracer::close(Span& span) {
  const std::int64_t end_ns = util::Stopwatch::now_ns();
  const auto duration = static_cast<std::uint64_t>(end_ns - span.start_ns_);
  const std::uint64_t self =
      duration > span.child_ns_ ? duration - span.child_ns_ : 0;
  self_ns_[static_cast<std::size_t>(span.layer_)].fetch_add(
      self, std::memory_order_relaxed);
  if (span.parent_ != nullptr) {
    span.parent_->child_ns_ += duration;
  } else {
    root_ns_.fetch_add(duration, std::memory_order_relaxed);
  }
  tl_open_span = span.parent_;
  if (spans_.fetch_add(1, std::memory_order_relaxed) < kMaxEvents) {
    std::lock_guard<std::mutex> lock(events_mutex_);
    events_.push_back(Event{span.name_, span.layer_, thread_index(), span.id_,
                            span.parent_ != nullptr ? span.parent_->id_ : 0,
                            span.request_, span.start_ns_, end_ns});
  }
}

std::array<std::uint64_t, kLayerCount> Tracer::self_ns() const {
  std::array<std::uint64_t, kLayerCount> out{};
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    out[i] = self_ns_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  util::check<util::IoError>(out.good(),
                             "tracer: cannot open " + path.string());
  std::lock_guard<std::mutex> lock(events_mutex_);
  std::int64_t origin = events_.empty() ? 0 : events_.front().start_ns;
  for (const Event& e : events_) origin = std::min(origin, e.start_ns);
  obs::JsonWriter w(out, /*pretty=*/false);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const Event& e : events_) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("cat", layer_name(e.layer));
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", static_cast<std::uint64_t>(e.tid));
    w.kv("ts", static_cast<double>(e.start_ns - origin) / 1e3);
    w.kv("dur", static_cast<double>(e.end_ns - e.start_ns) / 1e3);
    w.key("args");
    w.begin_object();
    w.kv("id", e.id);
    w.kv("parent", e.parent);
    w.kv("request", e.request);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("otherData");
  w.begin_object();
  w.kv("spans", spans());
  w.kv("events_kept", static_cast<std::uint64_t>(events_.size()));
  w.kv("root_ms", static_cast<double>(root_ns()) / 1e6);
  w.key("self_ms");
  w.begin_object();
  const auto self = self_ns();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    w.kv(layer_name(static_cast<Layer>(i)), static_cast<double>(self[i]) / 1e6);
  }
  w.end_object();
  w.end_object();
  w.end_object();
  out << '\n';
  util::check<util::IoError>(out.good(),
                             "tracer: write failed for " + path.string());
}

}  // namespace clio::bench
