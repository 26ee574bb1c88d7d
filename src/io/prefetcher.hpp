#pragma once

#include <cstdint>
#include <unordered_map>

#include "io/file_store.hpp"

namespace clio::io {

/// Readahead policy knobs.  window = 0 disables prefetching entirely
/// (the `ablation_prefetch` bench sweeps this).
struct PrefetchConfig {
  std::size_t window = 4;      ///< pages fetched ahead once sequential
  std::size_t min_streak = 2;  ///< consecutive pages before kicking in
};

/// A contiguous run of pages proposed for readahead ([first, first+count)).
/// Sequential readahead is always contiguous, so returning a range instead
/// of materializing a page vector keeps the hot path allocation-free, and
/// the pool loads each contiguous cold run with a single vectored
/// BackingStore::readv gather (mirroring the write-back coalescing).
struct PrefetchRange {
  std::uint64_t first = 0;
  std::size_t count = 0;
  [[nodiscard]] bool empty() const { return count == 0; }
};

/// Detects per-file sequential page access and proposes readahead.
///
/// The paper attributes its cold/warm asymmetries to exactly this mechanism:
/// "At the time when a read, write, or seek operation is performed, a
/// prefetch operation will be invoked accordingly."  The policy here is the
/// classic streak detector: after `min_streak` consecutive pages, propose
/// the next `window` pages.  Stateless about residency — the BufferPool
/// skips pages that are already cached.
class SequentialPrefetcher {
 public:
  explicit SequentialPrefetcher(PrefetchConfig config = {});

  /// Records an access to (file, page) and returns the run of pages worth
  /// prefetching (empty until the sequential streak is established).
  PrefetchRange propose(FileId file, std::uint64_t page);

  /// Records accesses to pages first..last of one request, in order, and
  /// returns the run worth prefetching past it.  Same answer and same
  /// stream state as calling propose() on each of those pages in turn, at
  /// the cost of one call.
  PrefetchRange propose_span(FileId file, std::uint64_t first,
                             std::uint64_t last);

  /// Forgets per-file state (e.g. after close).
  void forget(FileId file);

  void reset();

  [[nodiscard]] const PrefetchConfig& config() const { return config_; }

 private:
  struct StreamState {
    std::uint64_t last_page = UINT64_MAX;
    std::size_t streak = 0;
  };

  PrefetchConfig config_;
  std::unordered_map<FileId, StreamState> streams_;
};

}  // namespace clio::io
