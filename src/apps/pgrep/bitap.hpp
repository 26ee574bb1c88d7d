#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace clio::apps::pgrep {

/// Bit-parallel approximate string matching after Wu & Manber's agrep
/// (USENIX '92) — the algorithm behind the UMD "Pgrep" workload ("a
/// modified parallel version of the agrep program from the University of
/// Arizona", used for partial match and approximate searches).
///
/// Patterns up to 63 bytes; k is the maximum Levenshtein distance
/// (substitutions, insertions, deletions).  k = 0 degenerates to the exact
/// shift-and automaton.
class Bitap {
 public:
  static constexpr std::size_t kMaxPattern = 63;

  Bitap(std::string pattern, unsigned max_errors);

  /// Scans `text` and returns the END offsets (exclusive) of every match,
  /// i.e. positions p such that a substring ending at p matches the pattern
  /// within max_errors edits.
  [[nodiscard]] std::vector<std::size_t> find(std::string_view text) const;

  /// True if the text contains at least one match (early-out scan).
  [[nodiscard]] bool contains(std::string_view text) const;

  [[nodiscard]] const std::string& pattern() const { return pattern_; }
  [[nodiscard]] unsigned max_errors() const { return max_errors_; }

  /// The shift-and automaton tables, exposed for incremental scanners and
  /// for ports of the kernel (the VM bitap module builds the same tables).
  [[nodiscard]] std::uint64_t char_mask(unsigned char c) const {
    return char_masks_[c];
  }
  [[nodiscard]] std::uint64_t accept_bit() const { return accept_bit_; }

 private:
  template <bool kEarlyOut>
  std::vector<std::size_t> scan(std::string_view text) const;

  std::string pattern_;
  unsigned max_errors_;
  std::uint64_t char_masks_[256];
  std::uint64_t accept_bit_;
};

/// Incremental counterpart of Bitap::find for chunked streams: the match
/// automaton state (the R vector) carries across feed() calls, so a pattern
/// straddling two read chunks is still found.  This is the native core of
/// the managed-vs-native pgrep benchmark axis — the VM bitap kernel and
/// this scanner consume the same file through the same ManagedFileSystem
/// and must report the same match count.
class BitapStreamScanner {
 public:
  explicit BitapStreamScanner(const Bitap& matcher);

  /// Consumes one chunk; returns the number of matches ending inside it.
  /// Its entry is pinned to a cache line, like dmine::count_support's: it
  /// is vm_scan's other native twin.
  [[gnu::aligned(64)]] std::uint64_t feed(std::string_view chunk);

  /// Total matches across every chunk fed since construction/reset().
  [[nodiscard]] std::uint64_t matches() const { return matches_; }

  /// Rewinds the automaton to the start-of-text state.
  void reset();

 private:
  const Bitap* matcher_;
  std::vector<std::uint64_t> r_;
  std::uint64_t matches_ = 0;
};

}  // namespace clio::apps::pgrep
