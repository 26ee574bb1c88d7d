#include "io/managed_file.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

std::string read_all(ManagedFile& f, std::size_t n) {
  std::vector<std::byte> buf(n);
  const std::size_t got = f.read(buf);
  return std::string(reinterpret_cast<const char*>(buf.data()), got);
}

class ManagedFileTest : public ::testing::Test {
 protected:
  ManagedFileTest() { reset(ManagedFsOptions{}); }

  void reset(ManagedFsOptions options) {
    options.page_size = 256;
    options.pool_pages = 16;
    fs_ = std::make_unique<ManagedFileSystem>(
        std::make_unique<RealFileStore>(dir_.path()), options);
  }

  util::TempDir dir_;
  std::unique_ptr<ManagedFileSystem> fs_;
};

TEST_F(ManagedFileTest, CreateWriteReadBack) {
  auto f = fs_->open("a.bin", OpenMode::kCreate);
  f.write(as_bytes("managed hello"));
  f.seek(0);
  EXPECT_EQ(read_all(f, 13), "managed hello");
  f.close();
}

TEST_F(ManagedFileTest, OpenMissingForReadThrows) {
  EXPECT_THROW(fs_->open("nope", OpenMode::kRead), util::IoError);
  EXPECT_THROW(fs_->open("nope", OpenMode::kReadWrite), util::IoError);
}

TEST_F(ManagedFileTest, TruncateWipesContent) {
  {
    auto f = fs_->open("t.bin", OpenMode::kCreate);
    f.write(as_bytes("old content"));
  }
  auto f = fs_->open("t.bin", OpenMode::kTruncate);
  EXPECT_EQ(f.size(), 0u);
}

TEST_F(ManagedFileTest, CreateKeepsExistingContent) {
  {
    auto f = fs_->open("k.bin", OpenMode::kCreate);
    f.write(as_bytes("keep"));
  }
  auto f = fs_->open("k.bin", OpenMode::kCreate);
  EXPECT_EQ(f.size(), 4u);
}

TEST_F(ManagedFileTest, PositionAdvancesOnReadAndWrite) {
  auto f = fs_->open("p.bin", OpenMode::kCreate);
  f.write(as_bytes("0123456789"));
  EXPECT_EQ(f.position(), 10u);
  f.seek(2);
  EXPECT_EQ(f.position(), 2u);
  EXPECT_EQ(read_all(f, 3), "234");
  EXPECT_EQ(f.position(), 5u);
}

TEST_F(ManagedFileTest, ReadAtEofReturnsZero) {
  auto f = fs_->open("e.bin", OpenMode::kCreate);
  f.write(as_bytes("xy"));
  std::vector<std::byte> buf(4);
  EXPECT_EQ(f.read(buf), 0u);  // position is at EOF after write
}

TEST_F(ManagedFileTest, ShortReadNearEof) {
  auto f = fs_->open("s.bin", OpenMode::kCreate);
  f.write(as_bytes("abcdef"));
  f.seek(4);
  EXPECT_EQ(read_all(f, 100), "ef");
}

TEST_F(ManagedFileTest, ReadExactThrowsOnShortRead) {
  auto f = fs_->open("x.bin", OpenMode::kCreate);
  f.write(as_bytes("abc"));
  f.seek(0);
  std::vector<std::byte> buf(10);
  EXPECT_THROW(f.read_exact(buf), util::IoError);
}

TEST_F(ManagedFileTest, MultiPageWriteRoundTrips) {
  // 5 pages of 256 B, written in one call, read back in one call.
  std::string content;
  for (int p = 0; p < 5; ++p) content += std::string(256, char('A' + p));
  auto f = fs_->open("big.bin", OpenMode::kCreate);
  f.write(as_bytes(content));
  f.seek(0);
  EXPECT_EQ(read_all(f, content.size()), content);
}

TEST_F(ManagedFileTest, UnalignedWritesPreserveNeighbors) {
  auto f = fs_->open("u.bin", OpenMode::kCreate);
  f.write(as_bytes(std::string(512, '.')));
  f.seek(250);  // straddles the page boundary at 256
  f.write(as_bytes("BOUNDARY"));
  f.seek(0);
  const std::string all = read_all(f, 512);
  EXPECT_EQ(all.substr(250, 8), "BOUNDARY");
  EXPECT_EQ(all[249], '.');
  EXPECT_EQ(all[258], '.');
}

TEST_F(ManagedFileTest, DataPersistsAfterCloseViaWriteback) {
  {
    auto f = fs_->open("persist.bin", OpenMode::kCreate);
    f.write(as_bytes("durable"));
    f.close();
  }
  // Fresh managed fs over the same directory: data must be on real disk.
  reset(ManagedFsOptions{});
  auto f = fs_->open("persist.bin", OpenMode::kRead);
  EXPECT_EQ(read_all(f, 7), "durable");
}

TEST_F(ManagedFileTest, CloseIsIdempotentAndOpsOnClosedThrow) {
  auto f = fs_->open("c.bin", OpenMode::kCreate);
  f.close();
  f.close();  // no-op
  std::vector<std::byte> buf(1);
  EXPECT_THROW(f.read(buf), util::IoError);
  EXPECT_THROW(f.write(as_bytes("x")), util::IoError);
  EXPECT_THROW(f.seek(0), util::IoError);
}

TEST_F(ManagedFileTest, DestructorClosesImplicitly) {
  {
    auto f = fs_->open("d.bin", OpenMode::kCreate);
    f.write(as_bytes("bye"));
  }  // destructor close
  auto f = fs_->open("d.bin", OpenMode::kRead);
  EXPECT_EQ(f.size(), 3u);
}

TEST_F(ManagedFileTest, MoveTransfersHandle) {
  auto a = fs_->open("m.bin", OpenMode::kCreate);
  a.write(as_bytes("moved"));
  ManagedFile b = std::move(a);
  EXPECT_FALSE(a.is_open());
  EXPECT_TRUE(b.is_open());
  b.seek(0);
  EXPECT_EQ(read_all(b, 5), "moved");
}

TEST_F(ManagedFileTest, StatsRecordEveryOpClass) {
  auto f = fs_->open("ops.bin", OpenMode::kCreate);
  f.write(as_bytes("payload"));
  f.seek(0);
  std::vector<std::byte> buf(7);
  f.read(buf);
  f.close();
  const IoStats& stats = fs_->stats();
  EXPECT_EQ(stats.op_stats(IoOp::kOpen).count(), 1u);
  EXPECT_EQ(stats.op_stats(IoOp::kWrite).count(), 1u);
  EXPECT_EQ(stats.op_stats(IoOp::kSeek).count(), 1u);
  EXPECT_EQ(stats.op_stats(IoOp::kRead).count(), 1u);
  EXPECT_EQ(stats.op_stats(IoOp::kClose).count(), 1u);
  EXPECT_EQ(stats.total_bytes(), 14u);  // 7 written + 7 read
}

TEST_F(ManagedFileTest, SequentialReadTriggersPrefetch) {
  // Write 8 pages, drop caches, then read sequentially: the prefetcher
  // must load pages ahead of the stream.
  {
    auto f = fs_->open("seq.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(8 * 256, 's')));
  }
  fs_->drop_caches();
  auto f = fs_->open("seq.bin", OpenMode::kRead);
  std::vector<std::byte> page(256);
  f.read(page);
  f.read(page);
  f.read(page);  // by now the streak is established
  EXPECT_GT(fs_->pool().stats().prefetches, 0u);
  // Pages ahead of the read position are already resident.
  const std::uint64_t next = f.position() / 256;
  EXPECT_TRUE(fs_->pool().contains(fs_->store().open("seq.bin", false), next));
}

TEST_F(ManagedFileTest, ColdSeekLoadsTargetPageWarmSeekFree) {
  {
    auto f = fs_->open("seek.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(16 * 256, 'k')));
  }
  fs_->drop_caches();
  auto f = fs_->open("seek.bin", OpenMode::kRead);
  const auto before = fs_->pool().stats();
  f.seek(10 * 256);  // cold: target page fetched
  const auto mid = fs_->pool().stats();
  EXPECT_GT(mid.prefetches, before.prefetches);
  f.seek(10 * 256);  // warm: nothing to fetch
  const auto after = fs_->pool().stats();
  EXPECT_EQ(after.prefetches, mid.prefetches);
}

TEST_F(ManagedFileTest, PrefetchOnSeekCanBeDisabled) {
  ManagedFsOptions options;
  options.prefetch_on_seek = false;
  reset(options);
  {
    auto f = fs_->open("ns.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(4 * 256, 'n')));
  }
  fs_->drop_caches();
  auto f = fs_->open("ns.bin", OpenMode::kRead);
  f.seek(2 * 256);
  EXPECT_EQ(fs_->pool().stats().prefetches, 0u);
}

TEST_F(ManagedFileTest, SequentialReadaheadIsByteExactAndLoadsEachPageOnce) {
  std::string content;
  for (int p = 0; p < 16; ++p) content += std::string(256, char('A' + p));
  {
    auto f = fs_->open("seq16.bin", OpenMode::kCreate);
    f.write(as_bytes(content));
  }
  fs_->drop_caches();
  // drop_caches keeps the pool object (and its counters) alive, so count
  // loads as a delta from this baseline.
  const PoolStats base = fs_->pool().stats();
  // Sequential page-sized reads: readahead gathers pages ahead of the
  // stream, and every byte must still be exact.
  auto f = fs_->open("seq16.bin", OpenMode::kRead);
  std::string got;
  std::vector<std::byte> page(256);
  for (int p = 0; p < 16; ++p) {
    f.read_exact(page);
    got.append(reinterpret_cast<const char*>(page.data()), page.size());
  }
  EXPECT_EQ(got, content);
  // Each of the 16 pages was loaded exactly once, by demand miss or by
  // readahead (the pool holds the whole file; nothing was evicted).
  const PoolStats stats = fs_->pool().stats();
  EXPECT_GT(stats.prefetches, base.prefetches);
  EXPECT_EQ((stats.misses + stats.prefetches) -
                (base.misses + base.prefetches),
            16u);
}

TEST_F(ManagedFileTest, RemoveDeletesClosedFile) {
  {
    auto f = fs_->open("rm.bin", OpenMode::kCreate);
    f.write(as_bytes("gone"));
  }
  EXPECT_TRUE(fs_->exists("rm.bin"));
  fs_->remove("rm.bin");
  EXPECT_FALSE(fs_->exists("rm.bin"));
}

TEST_F(ManagedFileTest, VectoredBackingOpsAreObservableFromIoStats) {
  // The coalescing ratio used to be visible only in bench output; now the
  // backing gathers are recorded as IoOp::kWritev / kReadv in IoStats.
  {
    auto f = fs_->open("vec.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(16 * 256, 'v')));
  }  // close flushes: 16 adjacent dirty pages coalesce into one writev
  const IoStats& stats = fs_->stats();
  EXPECT_EQ(stats.op_stats(IoOp::kWritev).count(), 1u);
  EXPECT_EQ(stats.op_bytes(IoOp::kWritev), 16 * 256u);
  // The same numbers are visible pool-side; the two layers must agree.
  const PoolStats pool_stats = fs_->pool().stats();
  EXPECT_EQ(pool_stats.flush_write_calls, 1u);
  EXPECT_EQ(pool_stats.flush_write_pages, 16u);

  fs_->drop_caches();  // evicts every page; counters keep accumulating
  auto f = fs_->open("vec.bin", OpenMode::kRead);
  std::vector<std::byte> page(256);
  for (int p = 0; p < 16; ++p) f.read_exact(page);
  // Sequential reads established a streak and the readahead went out as
  // readv gathers; stats bytes must equal the pool's gathered pages.
  const std::uint64_t readv_calls = stats.op_stats(IoOp::kReadv).count();
  EXPECT_GE(readv_calls, 1u);
  EXPECT_EQ(stats.op_bytes(IoOp::kReadv),
            fs_->pool().stats().gather_read_pages * 256u);
  // Batching: strictly fewer backing calls than pages moved through them.
  EXPECT_LT(readv_calls, fs_->pool().stats().gather_read_pages);
}

TEST_F(ManagedFileTest, WorksOverSimStoreToo) {
  ManagedFsOptions options;
  options.page_size = 256;
  options.pool_pages = 16;
  ManagedFileSystem sim_fs(std::make_unique<SimFileStore>(4, 64 * 1024),
                           options);
  auto f = sim_fs.open("sim.bin", OpenMode::kCreate);
  f.write(as_bytes("simulated"));
  f.seek(0);
  EXPECT_EQ(read_all(f, 9), "simulated");
  f.close();
  auto& store = dynamic_cast<SimFileStore&>(sim_fs.store());
  EXPECT_GT(store.consume_model_ms(), 0.0);
}

}  // namespace
}  // namespace clio::io
