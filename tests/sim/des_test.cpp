#include "sim/des.hpp"

#include <gtest/gtest.h>

#include "model/qcrd.hpp"
#include "sim/speedup.hpp"
#include "util/error.hpp"

namespace clio::sim {
namespace {

MachineConfig base_machine() {
  MachineConfig m;
  m.cpus = 2;
  m.disks = 1;
  return m;
}

TEST(Des, RejectsBadTimebase) {
  EXPECT_THROW(simulate(model::make_qcrd(), base_machine(), 0.0),
               util::ConfigError);
}

TEST(Des, QcrdProducesBothProgramResults) {
  const auto result = simulate(model::make_qcrd(), base_machine(), 1.0);
  ASSERT_EQ(result.programs.size(), 2u);
  EXPECT_EQ(result.programs[0].name, "Program1");
  EXPECT_EQ(result.programs[1].name, "Program2");
  for (const auto& p : result.programs) {
    EXPECT_GT(p.cpu_ms, 0.0);
    EXPECT_GT(p.io_ms, 0.0);
    EXPECT_DOUBLE_EQ(p.comm_ms, 0.0);  // QCRD has no communication
    EXPECT_GT(p.finish_ms, 0.0);
    EXPECT_LE(p.total_ms(), p.finish_ms + 1e-9);
  }
  EXPECT_GT(result.makespan_ms, 0.0);
  EXPECT_GT(result.cpu_busy_ms, 0.0);
  EXPECT_GT(result.disk_busy_ms, 0.0);
}

TEST(Des, Program1DominatesMakespan) {
  // Paper: "the speedup is dominated by the first program ... the first
  // program runs longer than the second program."
  const auto result = simulate(model::make_qcrd(), base_machine(), 1.0);
  EXPECT_GT(result.programs[0].finish_ms, result.programs[1].finish_ms);
  EXPECT_DOUBLE_EQ(result.makespan_ms, result.programs[0].finish_ms);
}

TEST(Des, Program2IsMoreIoIntensive) {
  const auto result = simulate(model::make_qcrd(), base_machine(), 1.0);
  const auto& p1 = result.programs[0];
  const auto& p2 = result.programs[1];
  EXPECT_GT(p2.io_ms / p2.total_ms(), p1.io_ms / p1.total_ms());
  EXPECT_GT(p1.cpu_ms, p1.io_ms);  // program 1 is CPU-bound
  EXPECT_GT(p2.io_ms, p2.cpu_ms);  // program 2 is I/O-bound
}

TEST(Des, MakespanScalesWithTimebase) {
  const auto small = simulate(model::make_qcrd(), base_machine(), 0.5);
  const auto large = simulate(model::make_qcrd(), base_machine(), 2.0);
  EXPECT_GT(large.makespan_ms, small.makespan_ms * 2.0);
}

TEST(Des, MoreDisksNeverSlowDown) {
  auto machine = base_machine();
  const auto d1 = simulate(model::make_qcrd(), machine, 1.0);
  machine.disks = 8;
  const auto d8 = simulate(model::make_qcrd(), machine, 1.0);
  EXPECT_LE(d8.makespan_ms, d1.makespan_ms * 1.001);
}

TEST(Des, DataParallelCpuShrinksCpuTime) {
  auto machine = base_machine();
  machine.cpus = 8;
  machine.data_parallel_cpu = false;
  const auto serial = simulate(model::make_qcrd(), machine, 1.0);
  machine.data_parallel_cpu = true;
  const auto parallel = simulate(model::make_qcrd(), machine, 1.0);
  EXPECT_LT(parallel.programs[0].cpu_ms, serial.programs[0].cpu_ms / 4.0);
  EXPECT_LT(parallel.makespan_ms, serial.makespan_ms);
}

TEST(Des, SingleCpuCreatesContention) {
  // Two programs on one CPU: queueing delay stretches the makespan
  // relative to one CPU per program.
  auto machine = base_machine();
  machine.cpus = 1;
  const auto contended = simulate(model::make_qcrd(), machine, 1.0);
  machine.cpus = 2;
  const auto free = simulate(model::make_qcrd(), machine, 1.0);
  EXPECT_GT(contended.makespan_ms, free.makespan_ms);
}

// --- speedup sweeps (tests/paper/qcrd_test.cpp holds the Figure 4/5 shapes)

TEST(Speedup, CpuSpeedupExceedsDiskSpeedupForQcrd) {
  // Paper: "it is expected to efficiently improve the performance of QCRD
  // by increasing the number of CPUs" (vs. disks, which barely help).
  const auto disks = sweep_disks(model::make_qcrd(), base_machine(),
                                 {32}, 1.0);
  const auto cpus = sweep_cpus(model::make_qcrd(), base_machine(),
                               {32}, 1.0);
  EXPECT_GT(cpus[0].speedup, disks[0].speedup);
}

TEST(Speedup, EmptySweepRejected) {
  EXPECT_THROW(sweep_disks(model::make_qcrd(), base_machine(), {}, 1.0),
               util::ConfigError);
  EXPECT_THROW(sweep_cpus(model::make_qcrd(), base_machine(), {}, 1.0),
               util::ConfigError);
}

}  // namespace
}  // namespace clio::sim
