#include "io/managed_file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <shared_mutex>
#include <string>
#include <thread>

#include "io/fault_store.hpp"
#include "io/store_decorator.hpp"
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
  ManagedFileTest() { reset(); }

  void reset(std::size_t pool_pages = 16) {
    ManagedFsOptions options;
    options.page_size = 256;
    options.pool_pages = pool_pages;
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
  reset();
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

TEST_F(ManagedFileTest, SeekOnAFullyPinnedPoolSkipsTheTouchAndMoves) {
  reset(/*pool_pages=*/2);
  ASSERT_EQ(fs_->pool().capacity_pages(), 2u);
  {
    auto f = fs_->open("a.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(2 * 256, 'a')));
    auto g = fs_->open("b.bin", OpenMode::kCreate);
    g.write(as_bytes(std::string(4 * 256, 'b')));
  }
  fs_->drop_caches();
  auto a = fs_->open("a.bin", OpenMode::kRead);
  auto b = fs_->open("b.bin", OpenMode::kRead);
  {
    auto pin0 = fs_->pool().pin(a.id(), 0);
    auto pin1 = fs_->pool().pin(a.id(), 1);
    // Every frame is pinned: the seek's touch is a hint and is skipped.
    b.seek(512);
    EXPECT_EQ(b.position(), 512u);
    EXPECT_FALSE(fs_->pool().contains(b.id(), 2));
  }
  fs_->pool().debug_validate();
  EXPECT_EQ(read_all(b, 256), std::string(256, 'b'));
}

/// Records how far into its file any backing read reached.
class ReadExtentStore final : public StoreDecorator {
 public:
  using StoreDecorator::StoreDecorator;

  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    note(offset + out.size());
    return StoreDecorator::read(id, offset, out);
  }
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override {
    std::uint64_t end = offset;
    for (const auto& part : parts) end += part.size();
    note(end);
    return StoreDecorator::readv(id, offset, parts);
  }

  std::uint64_t read_end = 0;  ///< one past the furthest byte asked for

 private:
  void note(std::uint64_t end) { read_end = std::max(read_end, end); }
};

TEST_F(ManagedFileTest, SequentialReadsLoadExactlyThePagesTheyName) {
  auto owned = std::make_unique<ReadExtentStore>(
      std::make_unique<RealFileStore>(dir_.path()));
  ReadExtentStore& extent = *owned;
  ManagedFsOptions options;
  options.page_size = 256;
  options.pool_pages = 16;
  ManagedFileSystem fs(std::move(owned), options);
  std::string content;
  for (int p = 0; p < 16; ++p) content += std::string(256, char('A' + p));
  {
    auto f = fs.open("seq16.bin", OpenMode::kCreate);
    f.write(as_bytes(content));
  }
  fs.drop_caches();
  // drop_caches keeps the pool object (and its counters) alive, so count
  // loads as a delta from this baseline.
  const PoolStats base = fs.pool().stats();
  extent.read_end = 0;
  // Sequential page-sized reads of the first 10 of 16 pages.
  constexpr int kRead = 10;
  auto f = fs.open("seq16.bin", OpenMode::kRead);
  std::string got;
  std::vector<std::byte> page(256);
  for (int p = 0; p < kRead; ++p) {
    f.read_exact(page);
    got.append(reinterpret_cast<const char*>(page.data()), page.size());
  }
  EXPECT_EQ(got, content.substr(0, kRead * 256));
  // Each page read is one demand miss; nothing is loaded ahead of the
  // stream, and no backing read reaches past the last page read.
  const PoolStats stats = fs.pool().stats();
  EXPECT_EQ(stats.misses - base.misses, std::uint64_t{kRead});
  EXPECT_EQ(stats.prefetches - base.prefetches, 0u);
  EXPECT_EQ(extent.read_end, kRead * 256u);
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
  std::vector<std::byte> whole(16 * 256);
  f.read_exact(whole);
  // The cold 16-page span went out as a readv gather; stats bytes must
  // equal the pool's gathered pages.
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

// ------------------------------------------------------ request gather ----

/// Recognizable bytes that differ within a page and from page to page.
std::string pattern(std::size_t n, int salt = 0) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>((i * 7 + i / 256 + salt) % 251);
  }
  return s;
}

/// A managed fs with 256-byte pages over a FaultStore over a real store,
/// whose file "g.bin" already holds `content` on disk: every page starts
/// cold and the pool counters start at zero.
class RequestGatherTest : public ::testing::Test {
 protected:
  void make(std::size_t pool_pages, const std::string& content) {
    auto real = std::make_unique<RealFileStore>(dir_.path());
    const FileId id = real->open("g.bin", true);
    real->write(id, 0, as_bytes(content));
    real->close(id);
    auto faults = std::make_unique<FaultStore>(std::move(real));
    faults_ = faults.get();
    ManagedFsOptions options;
    options.page_size = 256;
    options.pool_pages = pool_pages;
    fs_ = std::make_unique<ManagedFileSystem>(std::move(faults), options);
  }

  std::string backing_bytes(FileId id, std::uint64_t offset, std::size_t n) {
    std::string out(n, '\0');
    static_cast<void>(fs_->store().read(
        id, offset, std::as_writable_bytes(std::span<char>(out))));
    return out;
  }

  util::TempDir dir_;
  FaultStore* faults_ = nullptr;
  std::unique_ptr<ManagedFileSystem> fs_;
};

TEST_F(RequestGatherTest, ColdSpanIsOneGatherOfMisses) {
  const std::string content = pattern(32 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kRead);
  EXPECT_EQ(read_all(f, content.size()), content);
  const PoolStats stats = fs_->pool().stats();
  EXPECT_EQ(stats.gather_read_calls, 1u);
  EXPECT_EQ(stats.gather_read_pages, 32u);
  EXPECT_EQ(fs_->stats().op_stats(IoOp::kReadv).count(), 1u);
  // Every page was needed by the request: 32 misses, no hits, and
  // nothing loaded as a prefetch.
  EXPECT_EQ(stats.misses, 32u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.prefetches, 0u);
}

TEST_F(RequestGatherTest, ResidentDirtyPageSplitsTheGatherAndIsReadBack) {
  std::string content = pattern(32 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kReadWrite);
  f.seek(16 * 256 + 10);
  f.write(as_bytes("DIRTY"));  // page 16: resident, dirty, not on disk
  const PoolStats before = fs_->pool().stats();
  f.seek(0);
  const std::string got = read_all(f, content.size());
  EXPECT_EQ(backing_bytes(f.id(), 16 * 256 + 10, 5),
            content.substr(16 * 256 + 10, 5));
  content.replace(16 * 256 + 10, 5, "DIRTY");
  EXPECT_EQ(got, content);
  // seek(0) touched page 0, so pages 1-15 and 17-31 are two cold runs
  // around the resident dirty page.
  const PoolStats after = fs_->pool().stats();
  EXPECT_EQ(after.gather_read_calls - before.gather_read_calls, 2u);
  EXPECT_EQ(after.gather_read_pages - before.gather_read_pages, 30u);
  EXPECT_EQ(after.misses - before.misses, 30u);
  EXPECT_EQ(after.prefetches - before.prefetches, 1u);  // page 0, by seek
  EXPECT_EQ(after.hits - before.hits, 2u);  // page 0 and the dirty page
}

TEST_F(RequestGatherTest, SpanPastStoreEofGathersOnlyStoredPages) {
  const std::string content = pattern(8 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kReadWrite);
  // Pages 8-9 exist only as dirty pool pages: the logical file is 10
  // pages, the store's 8.
  const std::string tail = pattern(2 * 256, 99);
  f.seek(8 * 256);
  f.write(as_bytes(tail));
  const PoolStats before = fs_->pool().stats();
  f.seek(0);
  EXPECT_EQ(read_all(f, 32 * 256), content + tail);
  // The seeks touched pages 7 and 0, so the one gather is pages 1-6.
  const PoolStats after = fs_->pool().stats();
  EXPECT_EQ(after.gather_read_calls - before.gather_read_calls, 1u);
  EXPECT_EQ(after.gather_read_pages - before.gather_read_pages, 6u);
  EXPECT_FALSE(fs_->pool().contains(f.id(), 10));
  fs_->pool().debug_validate();
}

TEST_F(RequestGatherTest, PoolSmallerThanTheSpanStaysByteExact) {
  const std::string content = pattern(32 * 256);
  make(8, content);
  auto f = fs_->open("g.bin", OpenMode::kRead);
  EXPECT_EQ(read_all(f, content.size()), content);
  // The gather drops what does not fit; the rest still loads exactly once
  // per page, because only pages already copied are evicted.
  EXPECT_EQ(fs_->pool().stats().misses, 32u);
  EXPECT_GE(fs_->pool().stats().gather_read_calls, 1u);
  fs_->pool().debug_validate();
}

TEST_F(RequestGatherTest, FailedGatherUnwindsAndARetrySucceeds) {
  const std::string content = pattern(32 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kRead);
  faults_->fail_next(FaultOp::kReadv, 1);
  std::vector<std::byte> buf(content.size());
  EXPECT_THROW(static_cast<void>(f.read(buf)), util::IoError);
  EXPECT_EQ(f.position(), 0u);
  EXPECT_EQ(fs_->pool().resident_pages(), 0u);
  fs_->pool().debug_validate();
  EXPECT_EQ(read_all(f, content.size()), content);
  EXPECT_EQ(f.position(), content.size());
  fs_->pool().debug_validate();
}

TEST_F(RequestGatherTest, FailedSeekLeavesThePositionUnchanged) {
  const std::string content = pattern(8 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kRead);
  f.seek(256);
  // The seek's touch of cold page 5 is a single-page read; make it fail.
  faults_->fail_next(FaultOp::kRead, 1);
  EXPECT_THROW(f.seek(5 * 256), util::IoError);
  EXPECT_EQ(f.position(), 256u);
  EXPECT_FALSE(fs_->pool().contains(f.id(), 5));
  fs_->pool().debug_validate();
  f.seek(5 * 256);
  EXPECT_EQ(f.position(), 5 * 256u);
  EXPECT_EQ(read_all(f, 256), content.substr(5 * 256, 256));
}

TEST_F(RequestGatherTest, ColdMultiPageWriteGathersItsPartialPages) {
  std::string content = pattern(32 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kReadWrite);
  // An unaligned 10-page write over pages 3-13.  The seek touches page 3;
  // the write's other cold pages (4-13) load in one gather, and the bytes
  // around the write survive.
  const std::string patch = pattern(10 * 256, 7);
  f.seek(3 * 256 + 100);
  f.write(as_bytes(patch));
  const PoolStats stats = fs_->pool().stats();
  EXPECT_EQ(stats.misses, 10u);
  EXPECT_EQ(stats.prefetches, 1u);  // page 3, by the seek
  EXPECT_EQ(stats.hits, 1u);        // page 3, by the write
  EXPECT_EQ(stats.gather_read_calls, 1u);
  content.replace(3 * 256 + 100, patch.size(), patch);
  f.seek(0);
  EXPECT_EQ(read_all(f, content.size()), content);
  f.close();
  fs_->drop_caches();
  auto g = fs_->open("g.bin", OpenMode::kRead);
  EXPECT_EQ(read_all(g, content.size()), content);
}

// -------------------------------------------------------- direct read ----

TEST_F(RequestGatherTest, LargeReadCopiesResidentPagesAndReadsEachColdRunOnce) {
  const std::string content = pattern(80 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kRead);
  fs_->pool().prefetch_range(f.id(), 40, 3);  // pages 40-42 resident
  const PoolStats before = fs_->pool().stats();
  EXPECT_EQ(read_all(f, content.size()), content);
  // Pages 0-39 and 43-79 are one direct read each; 40-42 are hits.
  const PoolStats after = fs_->pool().stats();
  EXPECT_EQ(after.direct_read_calls - before.direct_read_calls, 2u);
  EXPECT_EQ(after.direct_read_pages - before.direct_read_pages, 77u);
  EXPECT_EQ(after.hits - before.hits, 3u);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.prefetches, before.prefetches);
  EXPECT_EQ(after.gather_read_calls, before.gather_read_calls);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(fs_->pool().resident_pages(), 3u);
  EXPECT_EQ(fs_->stats().op_stats(IoOp::kReadv).count(), 1u);  // the warm-up
  fs_->pool().debug_validate();
}

TEST_F(RequestGatherTest, FailedDirectReadLeavesPositionAndPoolUnchanged) {
  const std::string content = pattern(80 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kRead);
  faults_->fail_next(FaultOp::kRead, 1);
  std::vector<std::byte> buf(content.size());
  EXPECT_THROW(static_cast<void>(f.read(buf)), util::IoError);
  EXPECT_EQ(f.position(), 0u);
  EXPECT_EQ(fs_->pool().resident_pages(), 0u);
  fs_->pool().debug_validate();
  EXPECT_EQ(read_all(f, content.size()), content);
  EXPECT_EQ(f.position(), content.size());
}

// ------------------------------------------------------- direct write ----

TEST_F(RequestGatherTest, LargeWriteIsOneStoreWriteAndLoadsNoFrame) {
  std::string content = pattern(80 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kReadWrite);
  fs_->pool().prefetch_range(f.id(), 40, 3);  // pages 40-42 resident
  const PoolStats before = fs_->pool().stats();
  const std::string patch = pattern(80 * 256, 5);
  f.write(as_bytes(patch));
  EXPECT_EQ(f.position(), patch.size());
  // One backing write of all 80 pages; no page loaded, evicted or
  // written back, and the three resident pages took the new bytes.
  const PoolStats after = fs_->pool().stats();
  EXPECT_EQ(after.direct_write_calls - before.direct_write_calls, 1u);
  EXPECT_EQ(after.direct_write_pages - before.direct_write_pages, 80u);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.writebacks, 0u);
  EXPECT_EQ(fs_->pool().resident_pages(), 3u);
  EXPECT_EQ(backing_bytes(f.id(), 0, patch.size()), patch);
  f.seek(40 * 256);
  EXPECT_EQ(read_all(f, 3 * 256), patch.substr(40 * 256, 3 * 256));
  // The resident pages are clean: closing the file writes nothing back.
  f.close();
  EXPECT_EQ(fs_->pool().stats().writebacks, 0u);
  fs_->pool().debug_validate();
}

TEST_F(RequestGatherTest, WriteUnderTheThresholdStagesThroughFrames) {
  const std::string content = pattern(80 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kReadWrite);
  fs_->pool().prefetch_range(f.id(), 2, 3);  // pages 2-4 resident
  const PoolStats before = fs_->pool().stats();
  const std::string patch = pattern(8 * 256, 5);
  f.write(as_bytes(patch));
  // Eight pages go through pin_span: the cold ones load, all stay dirty.
  const PoolStats after = fs_->pool().stats();
  EXPECT_EQ(after.direct_write_calls, before.direct_write_calls);
  EXPECT_EQ(after.direct_write_pages, before.direct_write_pages);
  EXPECT_EQ(after.misses - before.misses, 5u);
  EXPECT_EQ(fs_->pool().resident_pages(), 8u);
  EXPECT_EQ(backing_bytes(f.id(), 0, patch.size()), content.substr(0, 8 * 256));
  f.close();
  EXPECT_EQ(fs_->pool().stats().writebacks - after.writebacks, 8u);
}

TEST_F(RequestGatherTest, FailedLargeWriteLeavesResidentPagesDirty) {
  const std::string content = pattern(80 * 256);
  make(64, content);
  auto f = fs_->open("g.bin", OpenMode::kReadWrite);
  const FileId id = f.id();  // the store's id, valid until the close
  f.seek(20 * 256);
  static_cast<void>(read_all(f, 2 * 256));  // pages 20-21 resident, clean
  f.seek(30 * 256 + 7);
  f.write(as_bytes("dirty"));  // page 30 resident, dirty
  f.seek(0);
  faults_->fail_next(FaultOp::kWrite, 1);
  const std::string patch = pattern(80 * 256, 6);
  EXPECT_THROW(static_cast<void>(f.write(as_bytes(patch))), util::IoError);
  // The position stays and the store kept nothing.  The four resident
  // pages (0, touched by the seek, and 20, 21 and 30) hold the new bytes,
  // dirty, so the close writes exactly them back.
  EXPECT_EQ(f.position(), 0u);
  fs_->pool().debug_validate();
  EXPECT_EQ(backing_bytes(id, 0, content.size()), content);
  EXPECT_EQ(fs_->pool().stats().direct_write_calls, 0u);
  f.seek(20 * 256);
  EXPECT_EQ(read_all(f, 256), patch.substr(20 * 256, 256));
  const PoolStats before = fs_->pool().stats();
  f.close();
  const PoolStats after = fs_->pool().stats();
  EXPECT_EQ(after.writebacks - before.writebacks, 4u);
  std::string expected = content;
  for (const std::size_t page : {0, 20, 21, 30}) {
    expected.replace(page * 256, 256, patch.substr(page * 256, 256));
  }
  auto g = fs_->open("g.bin", OpenMode::kRead);
  EXPECT_EQ(backing_bytes(g.id(), 0, content.size()), expected);
  fs_->pool().debug_validate();
}

/// Scan resistance: a scan in reads of `scan_pages` pages over a cold file
/// four times the pool's size, after a small hot file was warmed.
class ScanResistanceTest : public ManagedFileTest {
 protected:
  static constexpr std::size_t kPoolPages = 32;
  static constexpr std::size_t kHotPages = 8;

  void scan(std::size_t scan_pages) {
    reset(kPoolPages);
    const std::string cold = pattern(4 * kPoolPages * 256, 1);
    {
      auto c = fs_->open("cold.bin", OpenMode::kTruncate);
      c.write(as_bytes(cold));
      auto h = fs_->open("hot.bin", OpenMode::kTruncate);
      h.write(as_bytes(pattern(kHotPages * 256, 2)));
    }
    fs_->drop_caches();
    hot_ = fs_->open("hot.bin", OpenMode::kRead);
    static_cast<void>(read_all(hot_, kHotPages * 256));
    before_ = fs_->pool().stats();
    resident_before_ = fs_->pool().resident_pages();
    auto c = fs_->open("cold.bin", OpenMode::kRead);
    std::string seen;
    while (c.position() < cold.size()) seen += read_all(c, scan_pages * 256);
    EXPECT_EQ(seen, cold);
  }

  std::size_t hot_resident() const {
    std::size_t n = 0;
    for (std::uint64_t p = 0; p < kHotPages; ++p) {
      n += fs_->pool().contains(hot_.id(), p) ? 1 : 0;
    }
    return n;
  }

  ManagedFile hot_;
  PoolStats before_;
  std::size_t resident_before_ = 0;
};

TEST_F(ScanResistanceTest, ScanInFullTransfersLeavesTheHotSetResident) {
  scan(BufferPool::kCoalescePages);
  EXPECT_EQ(hot_resident(), kHotPages);
  EXPECT_EQ(fs_->pool().stats().evictions, before_.evictions);
  EXPECT_EQ(fs_->pool().resident_pages(), resident_before_);
  EXPECT_EQ(fs_->pool().stats().direct_read_pages - before_.direct_read_pages,
            4 * kPoolPages);
}

TEST_F(ScanResistanceTest, TheSameScanInSmallReadsEvictsTheHotSet) {
  scan(4);  // under the threshold: every page stages through a frame
  EXPECT_LT(hot_resident(), kHotPages);
  EXPECT_GT(fs_->pool().stats().evictions, before_.evictions);
  EXPECT_EQ(fs_->pool().stats().direct_read_calls, before_.direct_read_calls);
}

TEST_F(ManagedFileTest, LargeReadsStayCoherentUnderRewritesAndChurn) {
  // Three threads on one pool of 24 pages in 4 shards: a reader reads a
  // 160-page file in reads of 64 pages or more; a writer rewrites and
  // flushes pages of it; a churner reads another file in small reads, so
  // the writer's dirty pages are evicted (written back) while the reader
  // runs.  Each read call and each write call excludes the other (a
  // reader and a writer on the same bytes would race on the page), so
  // every read must equal the file as of the last write exactly.
  ManagedFsOptions options;
  options.page_size = 256;
  options.pool_pages = 24;
  options.pool_shards = 4;
  fs_ = std::make_unique<ManagedFileSystem>(
      std::make_unique<RealFileStore>(dir_.path()), options);
  constexpr std::size_t kPages = 160;
  std::string shadow = pattern(kPages * 256 - 40, 3);
  {
    auto f = fs_->open("shared.bin", OpenMode::kTruncate);
    f.write(as_bytes(shadow));
    auto g = fs_->open("churn.bin", OpenMode::kTruncate);
    g.write(as_bytes(pattern(64 * 256, 4)));
  }
  std::shared_mutex exclusive;
  std::atomic<bool> writing{true};
  std::atomic<int> bad_reads{0};
  std::thread reader([&] {
    auto f = fs_->open("shared.bin", OpenMode::kRead);
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t pos = (i * 1237) % (kPages * 256 / 2);
      const std::size_t len = (64 + i % 40) * 256;
      std::shared_lock<std::shared_mutex> lock(exclusive);
      f.seek(pos);
      const std::string got = read_all(f, len);
      if (got != shadow.substr(pos, len)) bad_reads++;
    }
  });
  std::thread writer([&] {
    auto f = fs_->open("shared.bin", OpenMode::kReadWrite);
    for (int i = 0; i < 120; ++i) {
      const std::uint64_t pos = (i * 7919) % (kPages * 256 - 600);
      const std::string patch = pattern(1 + (i * 37) % 600, 10 + i);
      {
        std::unique_lock<std::shared_mutex> lock(exclusive);
        f.seek(pos);
        f.write(as_bytes(patch));
        shadow.replace(pos, patch.size(), patch);
      }
      if (i % 8 == 0) fs_->pool().flush_file(f.id());
    }
    writing = false;
  });
  std::thread churner([&] {
    auto g = fs_->open("churn.bin", OpenMode::kRead);
    for (int i = 0; writing || i < 200; ++i) {
      g.seek((i * 613) % (60 * 256));
      static_cast<void>(read_all(g, 1 + (i * 101) % (4 * 256)));
    }
  });
  reader.join();
  writer.join();
  churner.join();
  EXPECT_EQ(bad_reads.load(), 0);
  fs_->pool().flush_all();
  fs_->pool().debug_validate();
  auto f = fs_->open("shared.bin", OpenMode::kRead);
  EXPECT_EQ(read_all(f, shadow.size()), shadow);
  f.close();
  EXPECT_EQ(util::read_text_file(dir_.path() / "shared.bin"), shadow);
}

}  // namespace
}  // namespace clio::io
