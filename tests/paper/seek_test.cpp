// Tables 3 and 4: a cold replay's seeks against the same trace replayed
// warm, with no drop_caches between the two.
#include <gtest/gtest.h>

#include "paper/paper.hpp"
#include "util/temp_dir.hpp"

namespace clio::paper {
namespace {

constexpr std::uint64_t kSmallSample = 64ULL << 20;

double measured(const Rows& rows, std::string_view quantity) {
  return find(rows, quantity).measured;
}

// LU's seeks land on panels the preceding reads went around the pool for,
// so a cold seek loads its page and the warm replay finds it resident.
TEST(Table3, ColdSeeksCostMoreThanWarm) {
  const util::TempDir dir;
  const Rows rows = table3(dir.path(), kSmallSample);
  EXPECT_GT(measured(rows, "seek page loads"), 0);
  EXPECT_EQ(measured(rows, "warm seek page loads"), 0);
  EXPECT_GT(measured(rows, "seek_ms"), measured(rows, "warm seek_ms"));
}

// A known mismatch.  The left-looking factorization writes each column
// before any later column reads it, so the cold replay's page loads land
// on the column writes and its seeks find their pages resident: seeks cost
// the same cold and warm (docs/STORAGE.md, "Cold and warm replays").
TEST(Table4KnownMismatch, ColdPageLoadsLandOnWritesNotSeeks) {
  const util::TempDir dir;
  const Rows rows = table4(dir.path(), kSmallSample);
  const double seeks = measured(rows, "seek count");
  ASSERT_GT(seeks, 100000);
  EXPECT_LT(measured(rows, "seek page loads") * 10000, seeks);
  EXPECT_GT(measured(rows, "page misses"), 1000);
  EXPECT_EQ(measured(rows, "warm page misses"), 0);
  EXPECT_GT(measured(rows, "write_ms"), measured(rows, "warm write_ms"));
}

}  // namespace
}  // namespace clio::paper
