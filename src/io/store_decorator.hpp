#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "io/file_store.hpp"
#include "io/io_stats.hpp"
#include "util/error.hpp"

namespace clio::io {

/// Base of every BackingStore decorator (FaultStore, RetryingStore,
/// VectoredStatsStore): holds the inner store — owned or referenced — and
/// forwards every operation verbatim, *including the vectored data ops*.
/// A decorator that overrides nothing is fully transparent, and one that
/// forgets readv/writev no longer silently de-vectorizes the pool's
/// coalesced gathers into per-part calls (the base forwards the gather
/// whole; the de-vectorized BackingStore fallbacks are now opt-in via the
/// protected readv_fallback/writev_fallback helpers).
///
/// bind_stats() is the uniform observability seam: decorators that mirror
/// counters into an IoStats accept one here, the rest inherit the no-op,
/// so a whole chain can be bound without knowing its shape — see
/// bind_chain().
class StoreDecorator : public BackingStore {
 public:
  /// Decorates a store owned elsewhere (must outlive this).
  explicit StoreDecorator(BackingStore& inner) : inner_(inner) {}

  /// Decorates and owns the inner store — the shape ManagedFileSystem
  /// needs, since it takes its store by unique_ptr.
  explicit StoreDecorator(std::unique_ptr<BackingStore> inner)
      : owned_((util::check<util::ConfigError>(
                    inner != nullptr, "StoreDecorator: null inner store"),
                std::move(inner))),
        inner_(*owned_) {}

  FileId open(const std::string& name, bool create) override {
    return inner_.open(name, create);
  }
  void close(FileId id) override { inner_.close(id); }
  [[nodiscard]] std::uint64_t size(FileId id) const override {
    return inner_.size(id);
  }
  void truncate(FileId id, std::uint64_t new_size) override {
    inner_.truncate(id, new_size);
  }
  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    return inner_.read(id, offset, out);
  }
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override {
    inner_.write(id, offset, data);
  }
  void writev(FileId id, std::uint64_t offset,
              std::span<const std::span<const std::byte>> parts) override {
    inner_.writev(id, offset, parts);
  }
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override {
    return inner_.readv(id, offset, parts);
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  [[nodiscard]] FileId lookup(const std::string& name) const override {
    return inner_.lookup(name);
  }
  void remove(const std::string& name) override { inner_.remove(name); }

  [[nodiscard]] BackingStore& inner() { return inner_; }

  /// Mirrors this decorator's counters into an IoStats (not owned; bind
  /// before traffic or after quiescing).  Default: no counters, no-op.
  virtual void bind_stats(IoStats* stats) { static_cast<void>(stats); }

  /// Binds one IoStats down a whole decorator chain: walks inner() through
  /// every StoreDecorator layer, calling bind_stats() on each, and stops at
  /// the first non-decorator (the terminal store).  Chains compose in any
  /// order — FaultStore over RetryingStore over VectoredStatsStore or any
  /// permutation — and the caller needs to know nothing about the shape.
  static void bind_chain(BackingStore& top, IoStats* stats) {
    for (auto* layer = dynamic_cast<StoreDecorator*>(&top); layer != nullptr;
         layer = dynamic_cast<StoreDecorator*>(&layer->inner())) {
      layer->bind_stats(stats);
    }
  }

 protected:
  std::unique_ptr<BackingStore> owned_;  ///< null when wrapping a reference
  BackingStore& inner_;
};

/// Decorator that times the vectored data ops into an IoStats under the
/// pool-internal kReadv/kWritev classes, making the coalescing ratios of
/// the flush and gather paths observable from stats alone.  Scalar
/// read/write forward untimed: ManagedFile already accounts those at the
/// trace-op layer, and double-counting would skew the totals.
///
/// Unbound (stats == nullptr) it is fully transparent.
class VectoredStatsStore final : public StoreDecorator {
 public:
  explicit VectoredStatsStore(BackingStore& inner, IoStats* stats = nullptr)
      : StoreDecorator(inner), stats_(stats) {}

  void writev(FileId id, std::uint64_t offset,
              std::span<const std::span<const std::byte>> parts) override;
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override;

  void bind_stats(IoStats* stats) override;

 private:
  [[nodiscard]] IoStats* stats() const;

  IoStats* stats_;  ///< not owned; may be null.  Guarded by mutex_.
  mutable std::mutex mutex_;
};

}  // namespace clio::io
