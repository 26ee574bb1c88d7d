#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace clio::util {

/// Fixed-width ASCII table renderer.  `clio_paper` prints every paper
/// table and figure through this so the output format is uniform and
/// diffable.
///
///   TextTable t({"Request", "Data size (Bytes)", "Seek Time (ms)"});
///   t.add_row({"1", "66617088", "9.43e-05"});
///   t.render(std::cout);
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends one row; the cell count must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Renders with a box-drawing border, columns right-padded.
  void render(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double the way the paper's tables do: scientific for tiny
/// magnitudes (e.g. 7.33E-05), fixed otherwise, trimming trailing zeros.
[[nodiscard]] std::string format_ms(double ms);

/// Fixed-point with the given number of decimals.
[[nodiscard]] std::string format_fixed(double v, int decimals);

}  // namespace clio::util
