#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/error.hpp"

namespace clio::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  check<ConfigError>(!headers_.empty(), "TextTable: need at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  check<ConfigError>(cells.size() == headers_.size(),
                     "TextTable: row width != header width");
  rows_.push_back(std::move(cells));
}

void TextTable::render(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto rule = [&] {
    os << '+';
    for (auto w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c];
      for (std::size_t i = cells[c].size(); i < widths[c]; ++i) os << ' ';
      os << " |";
    }
    os << '\n';
  };

  rule();
  line(headers_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
}

std::string format_ms(double ms) {
  char buf[64];
  const double mag = std::fabs(ms);
  if (mag != 0.0 && mag < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2E", ms);
  } else if (mag < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.4f", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
  }
  return buf;
}

std::string format_fixed(double v, int decimals) {
  check<ConfigError>(decimals >= 0 && decimals <= 17,
                     "format_fixed: decimals out of range");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace clio::util
