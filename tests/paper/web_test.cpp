// Tables 5 and 6: the web server over the managed stack.
#include <gtest/gtest.h>

#include <string>

#include "paper/paper.hpp"
#include "util/temp_dir.hpp"

namespace clio::paper {
namespace {

// Keep-alive against the paper's close-per-request connections, best of
// five paired rounds.  The ratio reads 3-4.5x on an idle 4-CPU machine;
// the margin leaves room for a loaded or sanitized build.
TEST(Table5, KeepAliveBeatsClosePerRequest) {
  const util::TempDir dir;
  const Rows rows = table5(dir.path());
  EXPECT_GE(find(rows, "keep-alive / close-per-request").measured, 1.5);
  // The rows the paper lists: one GET and one POST per file.
  for (const char* file : {"#1 (7501 B)", "#2 (50607 B)", "#3 (14063 B)"}) {
    EXPECT_GT(find(rows, std::string("read_ms ") + file).measured, 0.0);
    EXPECT_GT(find(rows, std::string("write_ms ") + file).measured, 0.0);
  }
}

// The first read of a cold server pays the handler's JIT and cold pages.
TEST(Table6, FirstReadIsTheSlowest) {
  const util::TempDir dir;
  const Rows rows = table6(dir.path());
  const double first = find(rows, "read_ms trial 1").measured;
  for (int trial = 2; trial <= 6; ++trial) {
    EXPECT_GT(first,
              find(rows, "read_ms trial " + std::to_string(trial)).measured)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace clio::paper
