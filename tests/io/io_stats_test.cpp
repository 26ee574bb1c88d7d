#include "io/io_stats.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace clio::io {
namespace {

TEST(IoStats, OpNamesMatchTraceEncoding) {
  EXPECT_EQ(io_op_name(IoOp::kOpen), "open");
  EXPECT_EQ(io_op_name(IoOp::kClose), "close");
  EXPECT_EQ(io_op_name(IoOp::kRead), "read");
  EXPECT_EQ(io_op_name(IoOp::kWrite), "write");
  EXPECT_EQ(io_op_name(IoOp::kSeek), "seek");
  EXPECT_EQ(static_cast<int>(IoOp::kOpen), 0);
  EXPECT_EQ(static_cast<int>(IoOp::kClose), 1);
  EXPECT_EQ(static_cast<int>(IoOp::kRead), 2);
  EXPECT_EQ(static_cast<int>(IoOp::kWrite), 3);
  EXPECT_EQ(static_cast<int>(IoOp::kSeek), 4);
  // The vectored classes extend the enum past the trace set; traces may
  // only carry ops below kIoTraceOpCount.
  EXPECT_EQ(io_op_name(IoOp::kReadv), "readv");
  EXPECT_EQ(io_op_name(IoOp::kWritev), "writev");
  EXPECT_EQ(static_cast<int>(IoOp::kReadv), 5);
  EXPECT_EQ(static_cast<int>(IoOp::kWritev), 6);
  EXPECT_EQ(kIoTraceOpCount, 5u);
  EXPECT_EQ(kIoOpCount, 7u);
}

TEST(IoStats, VectoredOpsRecordCallsAndBytes) {
  IoStats stats;
  stats.record(IoOp::kReadv, 16 * 4096, 2.0);
  stats.record(IoOp::kReadv, 4 * 4096, 1.0);
  stats.record(IoOp::kWritev, 64 * 4096, 3.0);
  EXPECT_EQ(stats.op_stats(IoOp::kReadv).count(), 2u);
  EXPECT_EQ(stats.op_bytes(IoOp::kReadv), 20 * 4096u);
  EXPECT_EQ(stats.op_stats(IoOp::kWritev).count(), 1u);
  EXPECT_EQ(stats.op_bytes(IoOp::kWritev), 64 * 4096u);
  // The coalescing ratio falls straight out of the two numbers.
  EXPECT_DOUBLE_EQ(static_cast<double>(stats.op_bytes(IoOp::kWritev)) /
                       (stats.op_stats(IoOp::kWritev).count() * 4096.0),
                   64.0);
  // Backing-level vectored bytes do not double into the user-level total
  // (which sums managed kRead + kWrite only).
  EXPECT_EQ(stats.total_bytes(), 0u);
}

TEST(IoStats, RecordsPerOpClass) {
  IoStats stats;
  stats.record(IoOp::kRead, 100, 1.5);
  stats.record(IoOp::kRead, 200, 2.5);
  stats.record(IoOp::kWrite, 50, 0.5);
  EXPECT_EQ(stats.op_stats(IoOp::kRead).count(), 2u);
  EXPECT_DOUBLE_EQ(stats.op_stats(IoOp::kRead).mean(), 2.0);
  EXPECT_EQ(stats.op_stats(IoOp::kWrite).count(), 1u);
  EXPECT_EQ(stats.op_stats(IoOp::kOpen).count(), 0u);
}

TEST(IoStats, TotalsAggregateAcrossOps) {
  IoStats stats;
  stats.record(IoOp::kOpen, 0, 0.1);
  stats.record(IoOp::kRead, 100, 1.0);
  stats.record(IoOp::kWrite, 300, 2.0);
  stats.record(IoOp::kSeek, 12345, 0.2);  // seek bytes = offset, not payload
  EXPECT_DOUBLE_EQ(stats.total_ms(), 3.3);
  EXPECT_EQ(stats.total_bytes(), 400u);  // read + write only
}

TEST(IoStats, HistogramTracksOps) {
  IoStats stats;
  stats.record(IoOp::kRead, 1, 1.0);  // 1 ms = 1e6 ns
  EXPECT_EQ(stats.op_histogram(IoOp::kRead).count(), 1u);
  EXPECT_EQ(stats.op_histogram(IoOp::kWrite).count(), 0u);
}

TEST(IoStats, ResetClearsEverything) {
  IoStats stats;
  stats.record(IoOp::kClose, 0, 9.0);
  stats.record(IoOp::kRead, 64, 1.0);
  stats.reset();
  EXPECT_EQ(stats.op_stats(IoOp::kClose).count(), 0u);
  EXPECT_EQ(stats.op_bytes(IoOp::kRead), 0u);
  EXPECT_DOUBLE_EQ(stats.total_ms(), 0.0);
}

TEST(IoStats, RenderListsOnlyUsedOps) {
  IoStats stats;
  stats.record(IoOp::kRead, 64, 0.5);
  std::ostringstream oss;
  stats.render(oss);
  EXPECT_NE(oss.str().find("read"), std::string::npos);
  EXPECT_EQ(oss.str().find("write"), std::string::npos);
}

}  // namespace
}  // namespace clio::io
