// Tables 1 and 2: the paper's close costs more than its open (data mining
// 0.0072 against 0.0006 ms, Titan 0.005 against 0.0005 ms).  The replay
// here does not reproduce that: its open costs more than its close.  This
// is a known mismatch, asserted as what the program does together with the
// backing calls that explain it (docs/STORAGE.md, "Open and close costs").
#include <gtest/gtest.h>

#include "paper/paper.hpp"
#include "util/temp_dir.hpp"

namespace clio::paper {
namespace {

constexpr std::uint64_t kSmallSample = 64ULL << 20;

double measured(const Rows& rows, std::string_view quantity) {
  return find(rows, quantity).measured;
}

void expect_open_costs_more_than_close(const Rows& rows) {
  const double opens = measured(rows, "open count");
  ASSERT_GT(opens, 0);
  // The replayer opens in create mode, so no open probes the store with
  // exists(); each is one store open of a file with no handle open, which
  // RealFileStore (no idle descriptor cache) serves with an open(2).
  EXPECT_EQ(measured(rows, "store exists calls"), 0);
  EXPECT_EQ(measured(rows, "store opens"), opens);
  EXPECT_EQ(measured(rows, "store reopens"), opens);
  // Each close is one store close, a close(2), after a flush_file that
  // finds nothing dirty: the traces only read.
  EXPECT_EQ(measured(rows, "store closes"), measured(rows, "close count"));
  EXPECT_EQ(measured(rows, "flush write calls"), 0);
  // So open costs more than close: the reverse of the paper's shape.
  EXPECT_GT(find(rows, "close_ms").paper, find(rows, "open_ms").paper);
  EXPECT_GT(measured(rows, "open_ms"), measured(rows, "close_ms"));
}

TEST(Table1KnownMismatch, OpenCostsMoreThanCloseBecauseEachOpenReopens) {
  const util::TempDir dir;
  expect_open_costs_more_than_close(table1(dir.path(), kSmallSample));
}

TEST(Table2KnownMismatch, OpenCostsMoreThanCloseBecauseEachOpenReopens) {
  const util::TempDir dir;
  expect_open_costs_more_than_close(table2(dir.path(), kSmallSample));
}

}  // namespace
}  // namespace clio::paper
