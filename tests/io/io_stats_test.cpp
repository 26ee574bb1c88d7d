#include "io/io_stats.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "util/temp_dir.hpp"

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


TEST(IoStats, ManagedOpsAreCountedExactlyAndTimedOneInSixteen) {
  util::TempDir dir;
  ManagedFileSystem fs(std::make_unique<RealFileStore>(dir.path()));
  constexpr std::size_t kPage = 4096;
  constexpr std::uint64_t kPages = 16;
  constexpr std::uint64_t kOps = 4096;
  {
    auto f = fs.open("sampled.bin", OpenMode::kTruncate);
    f.write(std::vector<std::byte>(kPages * kPage, std::byte{7}));
  }
  auto file = fs.open("sampled.bin", OpenMode::kReadWrite);
  fs.stats().reset();
  std::uint64_t seek_bytes = 0;
  // A fresh thread starts its sampler from the seed, so which ops are
  // timed is the same on every run.
  std::thread([&] {
    std::vector<std::byte> page(kPage);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const std::uint64_t pos = (i % kPages) * kPage;
      file.seek(pos);
      seek_bytes += pos;
      ASSERT_EQ(file.read(page), kPage);
    }
  }).join();

  const IoStats& stats = fs.stats();
  const OpSnapshot seeks = stats.op_snapshot(IoOp::kSeek);
  const OpSnapshot reads = stats.op_snapshot(IoOp::kRead);
  EXPECT_EQ(seeks.count, kOps);
  EXPECT_EQ(seeks.bytes, seek_bytes);
  EXPECT_EQ(reads.count, kOps);
  EXPECT_EQ(reads.bytes, kOps * kPage);
  EXPECT_EQ(stats.total_bytes(), kOps * kPage);
  for (const IoOp op : {IoOp::kSeek, IoOp::kRead}) {
    const OpSnapshot snap = stats.op_snapshot(op);
    SCOPED_TRACE(std::string(io_op_name(op)));
    // 256 expected: one op in kTimedOneIn.
    EXPECT_GE(snap.timed, 128u);
    EXPECT_LE(snap.timed, 512u);
    EXPECT_GT(snap.mean_ms, 0.0);
    EXPECT_EQ(stats.op_stats(op).count(), snap.timed);
    EXPECT_EQ(stats.op_histogram(op).count(), snap.timed);
  }
  // The total scales each class's sampled mean by its exact count.
  EXPECT_NEAR(stats.total_ms(),
              static_cast<double>(kOps) * (seeks.mean_ms + reads.mean_ms),
              1e-9);
}

TEST(IoStats, ExplicitRecordAlwaysAddsASample) {
  IoStats stats;
  std::thread([&] {
    for (int i = 0; i < 1000; ++i) {
      const OpTimer timer;
      stats.record(IoOp::kRead, 1, timer);
      stats.record(IoOp::kWritev, 8, 0.25);
    }
  }).join();
  const OpSnapshot sampled = stats.op_snapshot(IoOp::kRead);
  EXPECT_EQ(sampled.count, 1000u);
  EXPECT_EQ(sampled.bytes, 1000u);
  EXPECT_GT(sampled.timed, 0u);
  EXPECT_LT(sampled.timed, 1000u);
  const OpSnapshot explicit_ops = stats.op_snapshot(IoOp::kWritev);
  EXPECT_EQ(explicit_ops.count, 1000u);
  EXPECT_EQ(explicit_ops.timed, 1000u);
  EXPECT_EQ(explicit_ops.bytes, 8000u);
  EXPECT_DOUBLE_EQ(explicit_ops.mean_ms, 0.25);
}

}  // namespace
}  // namespace clio::io
