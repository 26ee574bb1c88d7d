#include "io/prefetcher.hpp"

namespace clio::io {

SequentialPrefetcher::SequentialPrefetcher(PrefetchConfig config)
    : config_(config) {}

PrefetchRange SequentialPrefetcher::propose(FileId file, std::uint64_t page) {
  return propose_span(file, page, page);
}

PrefetchRange SequentialPrefetcher::propose_span(FileId file,
                                                 std::uint64_t first,
                                                 std::uint64_t last) {
  StreamState& st = streams_[file];
  if (st.last_page != UINT64_MAX && first == st.last_page + 1) {
    st.streak++;
  } else if (first == st.last_page) {
    // Repeated touch of the same page neither extends nor breaks the streak.
  } else {
    st.streak = 1;
  }
  // Each page after the first follows its predecessor: one step apiece.
  st.streak += last - first;
  st.last_page = last;
  if (config_.window == 0 || st.streak < config_.min_streak) return {};
  return PrefetchRange{last + 1, config_.window};
}

void SequentialPrefetcher::forget(FileId file) { streams_.erase(file); }

void SequentialPrefetcher::reset() { streams_.clear(); }

}  // namespace clio::io
