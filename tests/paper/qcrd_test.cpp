// Figures 2-5: the QCRD application (paper §2.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "paper/paper.hpp"
#include "util/temp_dir.hpp"

namespace clio::paper {
namespace {

/// The measured speedups of a sweep, in order of the swept count.
std::vector<double> speedups(const Rows& rows) {
  std::vector<double> out;
  for (const Row& row : rows) out.push_back(row.measured);
  return out;
}

TEST(Figures2And3, ProgramOneComputesAndProgramTwoDoesIo) {
  const util::TempDir dir;
  const Rows rows = qcrd(dir.path() / "qcrd", /*timebase_sec=*/0.1);
  // The model the paper plots: program 1 CPU-heavy, program 2 I/O-heavy,
  // and a large I/O share for the application.
  EXPECT_GT(find(rows, "Program1 cpu_s").paper,
            find(rows, "Program1 io_s").paper);
  EXPECT_GT(find(rows, "Program2 io_s").paper,
            find(rows, "Program2 cpu_s").paper);
  EXPECT_GT(find(rows, "Application io_pct").paper, 30.0);
  // The real execution reproduces the contrast between the programs.
  EXPECT_GT(find(rows, "Program2 io_pct").measured,
            find(rows, "Program1 io_pct").measured);
}

// "Increasing the number of disks does not necessarily improve the
// performance": every point changes the makespan only slightly, and the
// whole sweep spans a narrow band (the paper's bars wobble within ~0.3 of
// each other without a strict trend).
TEST(Figure4, DiskSweepIsNearlyFlat) {
  const auto points = speedups(fig4());
  ASSERT_EQ(points.size(), 5u);
  for (const double s : points) {
    EXPECT_GE(s, 0.95);
    EXPECT_LE(s, 2.0);
  }
  const auto [lo, hi] = std::minmax_element(points.begin(), points.end());
  EXPECT_LT(*hi - *lo, 0.5);
}

// Computation scales with the CPUs while I/O stays serial per program, so
// the curve rises and saturates at the Amdahl ceiling of program 2's I/O.
TEST(Figure5, CpuSweepRisesThenSaturates) {
  const auto points = speedups(fig5());
  ASSERT_EQ(points.size(), 5u);
  EXPECT_GT(points[1], points[0]);
  EXPECT_GT(points[4], points[0]);
  // The gain from 16 to 32 CPUs is below the gain from 2 to 4.
  EXPECT_LT(points[4] - points[3], points[1] - points[0]);
  EXPECT_LT(points[4], 4.0);
  EXPECT_GT(points[4], 1.5);
}

}  // namespace
}  // namespace clio::paper
