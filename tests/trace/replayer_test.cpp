#include "trace/replayer.hpp"

#include <gtest/gtest.h>

#include "io/file_store.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/temp_dir.hpp"

namespace clio::trace {
namespace {

class ReplayerTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSampleSize = 1 << 20;  // 1 MiB

  ReplayerTest() {
    io::ManagedFsOptions options;
    options.page_size = 4096;
    options.pool_pages = 512;
    fs_ = std::make_unique<io::ManagedFileSystem>(
        std::make_unique<io::RealFileStore>(dir_.path()), options);
    util::create_sample_file(dir_.path() / "sample.bin", kSampleSize);
  }

  util::TempDir dir_;
  std::unique_ptr<io::ManagedFileSystem> fs_;
};

TEST_F(ReplayerTest, SequentialReplayTouchesAllBytes) {
  const auto t = sequential_read(kSampleSize, 64 * 1024);
  TraceReplayer replayer(*fs_);
  const auto result = replayer.replay(t);
  EXPECT_EQ(result.bytes_read, kSampleSize);
  EXPECT_EQ(result.bytes_written, 0u);
  EXPECT_EQ(result.op(TraceOp::kOpen).count(), 1u);
  EXPECT_EQ(result.op(TraceOp::kClose).count(), 1u);
  EXPECT_EQ(result.op(TraceOp::kRead).count(), 16u);
  EXPECT_GT(result.wall_ms, 0.0);
}

TEST_F(ReplayerTest, VerifyContentPassesOnPristineSample) {
  ReplayOptions options;
  options.verify_content = true;
  const auto t = sequential_read(256 * 1024, 32 * 1024);
  TraceReplayer replayer(*fs_, options);
  EXPECT_NO_THROW(replayer.replay(t));
}

TEST_F(ReplayerTest, VerifyContentCatchesCorruption) {
  // Overwrite part of the sample with different bytes, then verify-replay.
  {
    auto f = fs_->open("sample.bin", io::OpenMode::kReadWrite);
    f.seek(1000);
    const std::string junk(64, '!');
    f.write(std::as_bytes(std::span<const char>(junk.data(), junk.size())));
  }
  ReplayOptions options;
  options.verify_content = true;
  const auto t = sequential_read(8 * 1024, 8 * 1024);
  TraceReplayer replayer(*fs_, options);
  EXPECT_THROW(replayer.replay(t), util::IoError);
}

TEST_F(ReplayerTest, WritesLandInSampleFile) {
  const auto t = sequential_write(128 * 1024, 16 * 1024);
  TraceReplayer replayer(*fs_);
  const auto result = replayer.replay(t);
  EXPECT_EQ(result.bytes_written, 128u * 1024);
  // After replay (trace closes the file), content must match the canonical
  // pattern the replayer writes.
  ReplayOptions verify;
  verify.verify_content = true;
  TraceReplayer checker(*fs_, verify);
  EXPECT_NO_THROW(checker.replay(sequential_read(128 * 1024, 16 * 1024)));
}

TEST_F(ReplayerTest, RowsMatchTraceOrder) {
  const auto t = seek_read_sequence({{0, 100}, {50000, 200}});
  TraceReplayer replayer(*fs_);
  const auto result = replayer.replay(t);
  ASSERT_EQ(result.rows.size(), 6u);
  EXPECT_EQ(result.rows[1].op, TraceOp::kSeek);
  EXPECT_EQ(result.rows[2].op, TraceOp::kRead);
  EXPECT_EQ(result.rows[2].length, 100u);
  EXPECT_EQ(result.rows[3].offset, 50000u);
  for (const auto& row : result.rows) EXPECT_GE(row.ms, 0.0);
}

TEST_F(ReplayerTest, KeepRowsFalseSuppressesRows) {
  ReplayOptions options;
  options.keep_rows = false;
  TraceReplayer replayer(*fs_, options);
  const auto result = replayer.replay(sequential_read(64 * 1024, 16 * 1024));
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.op(TraceOp::kRead).count(), 4u);
}

TEST_F(ReplayerTest, CountFieldRepeatsOperations) {
  TraceFile t;
  t.header.sample_file = "sample.bin";
  TraceRecord open;
  open.op = TraceOp::kOpen;
  TraceRecord read;
  read.op = TraceOp::kRead;
  read.count = 5;
  read.offset = 0;
  read.length = 4096;
  read.wall_clock = 0.001;
  TraceRecord close;
  close.op = TraceOp::kClose;
  close.wall_clock = 0.002;
  t.records = {open, read, close};
  t.header.num_records = 3;
  TraceReplayer replayer(*fs_);
  const auto result = replayer.replay(t);
  EXPECT_EQ(result.op(TraceOp::kRead).count(), 5u);
  EXPECT_EQ(result.bytes_read, 5u * 4096);
}

TEST_F(ReplayerTest, ReadBeforeOpenRejected) {
  TraceFile t;
  t.header.sample_file = "sample.bin";
  TraceRecord read;
  read.op = TraceOp::kRead;
  read.length = 16;
  t.records = {read};
  t.header.num_records = 1;
  TraceReplayer replayer(*fs_);
  EXPECT_THROW(replayer.replay(t), util::ParseError);
}

TEST_F(ReplayerTest, WarmReplayFasterThanCold) {
  // Replay the same sequential trace twice without dropping caches: the
  // second pass is served from the buffer pool.
  const auto t = sequential_read(kSampleSize, 64 * 1024);
  TraceReplayer replayer(*fs_);
  fs_->drop_caches();
  const auto cold = replayer.replay(t);
  const auto warm = replayer.replay(t);
  EXPECT_LT(warm.op(TraceOp::kRead).mean(),
            cold.op(TraceOp::kRead).mean() * 1.5);
}

TEST_F(ReplayerTest, MultiProcessStreamsKeepIndependentHandles) {
  // Two pids interleave opens/reads/closes of the same fid, as Pgrep's
  // workers do; each (pid, fid) must own its slot or a close by one stream
  // would orphan the other's reads.
  TraceFile t;
  t.header.sample_file = "sample.bin";
  t.header.num_processes = 2;
  auto rec = [&](TraceOp op, std::uint32_t pid, std::uint64_t offset,
                 std::uint64_t length, double clock) {
    TraceRecord r;
    r.op = op;
    r.pid = pid;
    r.offset = offset;
    r.length = length;
    r.wall_clock = clock;
    t.records.push_back(r);
  };
  rec(TraceOp::kOpen, 0, 0, 0, 0.0);
  rec(TraceOp::kOpen, 1, 0, 0, 0.001);
  rec(TraceOp::kRead, 0, 0, 4096, 0.002);
  rec(TraceOp::kClose, 1, 0, 0, 0.003);   // pid 1 closes...
  rec(TraceOp::kRead, 0, 4096, 4096, 0.004);  // ...pid 0 keeps reading
  rec(TraceOp::kClose, 0, 0, 0, 0.005);
  t.header.num_records = t.records.size();
  TraceReplayer replayer(*fs_);
  const auto result = replayer.replay(t);
  EXPECT_EQ(result.bytes_read, 8192u);
  EXPECT_EQ(result.op(TraceOp::kOpen).count(), 2u);
  EXPECT_EQ(result.op(TraceOp::kClose).count(), 2u);
}

TEST_F(ReplayerTest, ReadAndWriteRecordsIssueNoSeek) {
  // Read and write records are positional, as the native twin's pread and
  // pwrite are: only the trace's seek records seek, each as seek(0) then
  // seek(offset).  Writes put the sample's own bytes back, so the verify
  // pass holds every read to the pristine pattern.
  TraceFile t;
  t.header.sample_file = "sample.bin";
  double clock = 0.0;
  auto rec = [&](TraceOp op, std::uint64_t offset, std::uint64_t length,
                 std::uint32_t count = 1) {
    TraceRecord r;
    r.op = op;
    r.offset = offset;
    r.length = length;
    r.count = count;
    r.wall_clock = clock += 0.001;
    t.records.push_back(r);
  };
  rec(TraceOp::kOpen, 0, 0);
  rec(TraceOp::kSeek, 4096, 0);
  rec(TraceOp::kRead, 4096, 512);
  rec(TraceOp::kWrite, 10000, 3000);
  rec(TraceOp::kRead, 9000, 5000, 2);
  rec(TraceOp::kSeek, 300000, 0, 3);
  rec(TraceOp::kRead, 300000, 70000);  // around the pool
  rec(TraceOp::kWrite, 600000, 300000);
  rec(TraceOp::kRead, kSampleSize - 100, 512);  // short at EOF
  rec(TraceOp::kClose, 0, 0);
  t.header.num_records = t.records.size();
  ReplayOptions options;
  options.verify_content = true;
  TraceReplayer replayer(*fs_, options);
  const io::IoStats& stats = fs_->stats();
  const auto count = [&](io::IoOp op) { return stats.op_snapshot(op).count; };
  const std::uint64_t seeks = count(io::IoOp::kSeek);
  const std::uint64_t reads = count(io::IoOp::kRead);
  const std::uint64_t writes = count(io::IoOp::kWrite);
  ReplayResult result;
  ASSERT_NO_THROW(result = replayer.replay(t));
  EXPECT_EQ(result.op(TraceOp::kSeek).count(), 4u);
  EXPECT_EQ(count(io::IoOp::kSeek) - seeks, 2u * 4);
  EXPECT_EQ(count(io::IoOp::kRead) - reads, 5u);
  EXPECT_EQ(count(io::IoOp::kWrite) - writes, 2u);
  EXPECT_EQ(result.bytes_read, 512u + 2 * 5000 + 70000 + 100);
  EXPECT_EQ(result.bytes_written, 3000u + 300000);
}

TEST_F(ReplayerTest, SeeksAreCheapWhenWarm) {
  // Warm the pool with a sequential pass, then time pure seeks: they must
  // be far cheaper than the initial cold reads (Table 3's contrast).
  TraceReplayer replayer(*fs_);
  const auto warmup = replayer.replay(sequential_read(kSampleSize, 64 * 1024));
  const auto seeks =
      replayer.replay(seek_sequence({0, 65536, 131072, 262144}));
  EXPECT_LT(seeks.op(TraceOp::kSeek).mean(),
            warmup.op(TraceOp::kRead).mean());
}

}  // namespace
}  // namespace clio::trace
