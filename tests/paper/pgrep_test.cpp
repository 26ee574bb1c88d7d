// Pgrep, the fifth traced application (no table in the paper): what its
// cold replay must show on every run.
#include <gtest/gtest.h>

#include "paper/paper.hpp"
#include "util/temp_dir.hpp"

namespace clio::paper {
namespace {

// Twice the 8 MiB corpus the replay reads.
constexpr std::uint64_t kSmallSample = 16ULL << 20;

double measured(const Rows& rows, std::string_view quantity) {
  return find(rows, quantity).measured;
}

// The cold replay loads each of the 8 MiB corpus's 2,048 pages once: by a
// read that misses, or by a seek's one-page touch.  The split between the
// two rows is not fixed (2,044 and 4 in most runs, 2,045 and 3 in some).
// The four workers' records are captured in the order the threads issue
// them.  A worker's last read runs a pattern's length into the next
// worker's first page, so when that read is captured before the next
// worker's seek, the seek finds its page resident: one more miss and one
// fewer seek load.  Delaying one worker's start forces that split; that
// an unforced run's flip comes from a late worker is the likely cause,
// not a traced one (docs/STORAGE.md).
TEST(Pgrep, ColdReplayLoadsEveryCorpusPageOnce) {
  const util::TempDir dir;
  const Rows rows = pgrep(dir.path(), kSmallSample);
  EXPECT_EQ(measured(rows, "matches"), 142);
  EXPECT_EQ(measured(rows, "seek count"), 4);
  EXPECT_EQ(measured(rows, "page misses") + measured(rows, "seek page loads"),
            2048);
}

}  // namespace
}  // namespace clio::paper
