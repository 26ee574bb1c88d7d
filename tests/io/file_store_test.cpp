#include "io/file_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

std::string to_string(std::span<const std::byte> bytes, std::size_t n) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), n);
}

/// Both BackingStore implementations must satisfy the same contract, so the
/// whole suite is typed over a factory.
template <typename MakeStore>
class StoreFixture : public ::testing::Test {
 protected:
  StoreFixture() : store_holder_(MakeStore{}(dir_)), store_(*store_holder_) {}

  util::TempDir dir_;
  std::unique_ptr<BackingStore> store_holder_;
  BackingStore& store_;
};

struct MakeReal {
  std::unique_ptr<BackingStore> operator()(util::TempDir& dir) const {
    return std::make_unique<RealFileStore>(dir.path());
  }
};
struct MakeSim {
  std::unique_ptr<BackingStore> operator()(util::TempDir&) const {
    return std::make_unique<SimFileStore>(4, 64 * 1024);
  }
};

template <typename T>
using BackingStoreContract = StoreFixture<T>;
using StoreTypes = ::testing::Types<MakeReal, MakeSim>;
TYPED_TEST_SUITE(BackingStoreContract, StoreTypes);

TYPED_TEST(BackingStoreContract, CreateWriteReadRoundTrip) {
  auto& store = this->store_;
  const FileId id = store.open("data.bin", /*create=*/true);
  store.write(id, 0, as_bytes("hello world"));
  std::vector<std::byte> buf(11);
  EXPECT_EQ(store.read(id, 0, buf), 11u);
  EXPECT_EQ(to_string(buf, 11), "hello world");
  store.close(id);
}

TYPED_TEST(BackingStoreContract, OpenMissingWithoutCreateFails) {
  auto& store = this->store_;
  EXPECT_THROW(store.open("missing", /*create=*/false), util::IoError);
}

TYPED_TEST(BackingStoreContract, SizeTracksWrites) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  EXPECT_EQ(store.size(id), 0u);
  store.write(id, 100, as_bytes("x"));
  EXPECT_EQ(store.size(id), 101u);  // hole + 1 byte
  store.close(id);
}

TYPED_TEST(BackingStoreContract, HolesReadAsZero) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 10, as_bytes("z"));
  std::vector<std::byte> buf(10);
  EXPECT_EQ(store.read(id, 0, buf), 10u);
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
  store.close(id);
}

TYPED_TEST(BackingStoreContract, ReadPastEofReturnsZero) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abc"));
  std::vector<std::byte> buf(8);
  EXPECT_EQ(store.read(id, 100, buf), 0u);
  store.close(id);
}

TYPED_TEST(BackingStoreContract, ShortReadAtEof) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abcdef"));
  std::vector<std::byte> buf(10);
  EXPECT_EQ(store.read(id, 4, buf), 2u);
  EXPECT_EQ(to_string(buf, 2), "ef");
  store.close(id);
}

TYPED_TEST(BackingStoreContract, OverwriteInPlace) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("aaaaaa"));
  store.write(id, 2, as_bytes("BB"));
  std::vector<std::byte> buf(6);
  store.read(id, 0, buf);
  EXPECT_EQ(to_string(buf, 6), "aaBBaa");
  store.close(id);
}

TYPED_TEST(BackingStoreContract, TruncateShrinksFile) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("0123456789"));
  store.truncate(id, 4);
  EXPECT_EQ(store.size(id), 4u);
  std::vector<std::byte> buf(10);
  EXPECT_EQ(store.read(id, 0, buf), 4u);
  store.close(id);
}

TYPED_TEST(BackingStoreContract, ExistsReflectsLifecycle) {
  auto& store = this->store_;
  EXPECT_FALSE(store.exists("f"));
  const FileId id = store.open("f", true);
  EXPECT_TRUE(store.exists("f"));
  store.close(id);
  EXPECT_TRUE(store.exists("f"));  // close does not delete
  store.remove("f");
  EXPECT_FALSE(store.exists("f"));
}

TYPED_TEST(BackingStoreContract, ReopenSeesPersistedData) {
  auto& store = this->store_;
  FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("persist"));
  store.close(id);
  id = store.open("f", true);
  std::vector<std::byte> buf(7);
  EXPECT_EQ(store.read(id, 0, buf), 7u);
  EXPECT_EQ(to_string(buf, 7), "persist");
  store.close(id);
}

TYPED_TEST(BackingStoreContract, DoubleOpenSharesId) {
  auto& store = this->store_;
  const FileId a = store.open("f", true);
  const FileId b = store.open("f", true);
  EXPECT_EQ(a, b);
  store.close(a);
  store.close(b);
}

TYPED_TEST(BackingStoreContract, ReadvScattersContiguousBytesInOrder) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("0123456789abcdef"));
  std::vector<std::byte> a(4), b(6);
  std::vector<std::span<std::byte>> parts{a, b};
  EXPECT_EQ(store.readv(id, 2, parts), 10u);
  EXPECT_EQ(to_string(a, 4), "2345");
  EXPECT_EQ(to_string(b, 6), "6789ab");
  store.close(id);
}

TYPED_TEST(BackingStoreContract, ReadvShortAtEof) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abcdef"));
  std::vector<std::byte> a(4), b(4);
  std::vector<std::span<std::byte>> parts{a, b};
  EXPECT_EQ(store.readv(id, 0, parts), 6u);  // short: only 6 bytes exist
  EXPECT_EQ(to_string(a, 4), "abcd");
  EXPECT_EQ(to_string(b, 2), "ef");
  store.close(id);
}

TYPED_TEST(BackingStoreContract, ReadvPastEofReturnsZero) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abc"));
  std::vector<std::byte> a(4);
  std::vector<std::span<std::byte>> parts{a};
  EXPECT_EQ(store.readv(id, 100, parts), 0u);
  store.close(id);
}

TYPED_TEST(BackingStoreContract, OperationsOnClosedIdFail) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.close(id);
  std::vector<std::byte> buf(1);
  EXPECT_THROW(store.read(id, 0, buf), util::IoError);
}

TYPED_TEST(BackingStoreContract, InvalidIdRaisesIoErrorOnEveryDataOp) {
  // An id that was never opened fails every data operation, vectored ones
  // included, with the typed IoError rather than touching any file.
  auto& store = this->store_;
  static_cast<void>(store.open("f", true));
  std::vector<std::byte> buf(4);
  std::vector<std::span<std::byte>> read_parts{buf};
  const std::string data = "abcd";
  std::vector<std::span<const std::byte>> write_parts{as_bytes(data)};
  EXPECT_THROW(store.read(kInvalidFile, 0, buf), util::IoError);
  EXPECT_THROW(store.readv(kInvalidFile, 0, read_parts), util::IoError);
  EXPECT_THROW(store.write(kInvalidFile, 0, as_bytes(data)), util::IoError);
  EXPECT_THROW(store.writev(kInvalidFile, 0, write_parts), util::IoError);
}

TYPED_TEST(BackingStoreContract, ReadvWithEmptyVectorReturnsZero) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abc"));
  EXPECT_EQ(store.readv(id, 0, {}), 0u);
  store.close(id);
}

TYPED_TEST(BackingStoreContract, ReadvZeroLengthPartsDoNotStopTheScatter) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("01234567"));
  std::vector<std::byte> a(4), c(4);
  std::span<std::byte> empty;
  // An empty part in the middle contributes zero bytes but must not be
  // mistaken for a short read that ends the scatter.
  std::vector<std::span<std::byte>> parts{a, empty, c};
  EXPECT_EQ(store.readv(id, 0, parts), 8u);
  EXPECT_EQ(to_string(a, 4), "0123");
  EXPECT_EQ(to_string(c, 4), "4567");
  store.close(id);
}

TYPED_TEST(BackingStoreContract, ReadvPartEndingExactlyAtEof) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abcdef"));
  std::vector<std::byte> a(6), b(4, std::byte{'?'});
  std::vector<std::span<std::byte>> parts{a, b};
  // The first part consumes the whole file; the second sees clean EOF.
  EXPECT_EQ(store.readv(id, 0, parts), 6u);
  EXPECT_EQ(to_string(a, 6), "abcdef");
  EXPECT_EQ(static_cast<char>(b[0]), '?');  // untouched
  store.close(id);
}

TYPED_TEST(BackingStoreContract, ReadvStraddlingEofStopsMidPart) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("0123456789"));
  std::vector<std::byte> a(4), b(4), c(4, std::byte{'?'});
  std::vector<std::span<std::byte>> parts{a, b, c};
  // Offset 4: six bytes remain — part a fills, part b fills half, part c
  // is never reached.
  EXPECT_EQ(store.readv(id, 4, parts), 6u);
  EXPECT_EQ(to_string(a, 4), "4567");
  EXPECT_EQ(to_string(b, 2), "89");
  EXPECT_EQ(static_cast<char>(c[0]), '?');
  store.close(id);
}

TYPED_TEST(BackingStoreContract, WritevGathersPartsContiguously) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  const std::string a = "head", b = "-", c = "tail";
  std::vector<std::span<const std::byte>> parts{as_bytes(a), as_bytes(b),
                                                as_bytes(c)};
  store.writev(id, 2, parts);
  EXPECT_EQ(store.size(id), 11u);  // 2-byte hole + 9 payload bytes
  std::vector<std::byte> buf(11);
  EXPECT_EQ(store.read(id, 0, buf), 11u);
  EXPECT_EQ(to_string(buf, 11).substr(2), "head-tail");
  store.close(id);
}

TYPED_TEST(BackingStoreContract, WritevSkipsZeroLengthParts) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  const std::string a = "aa", c = "cc";
  std::span<const std::byte> empty;
  std::vector<std::span<const std::byte>> parts{as_bytes(a), empty,
                                                as_bytes(c)};
  store.writev(id, 0, parts);
  EXPECT_EQ(store.size(id), 4u);
  std::vector<std::byte> buf(4);
  store.read(id, 0, buf);
  EXPECT_EQ(to_string(buf, 4), "aacc");
  store.close(id);
}

TYPED_TEST(BackingStoreContract, WritevWithEmptyVectorIsANoOp) {
  auto& store = this->store_;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("keep"));
  store.writev(id, 2, {});
  EXPECT_EQ(store.size(id), 4u);
  std::vector<std::byte> buf(4);
  store.read(id, 0, buf);
  EXPECT_EQ(to_string(buf, 4), "keep");
  store.close(id);
}

// ------------------------------------------------- base-class fallbacks ----

/// Implements only the pure-virtual surface, so readv/writev run the
/// BackingStore base-class per-part fallbacks.  Counts scalar calls to
/// prove the fallback decomposition.
class MinimalStore final : public BackingStore {
 public:
  FileId open(const std::string& name, bool create) override {
    if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
    util::check<util::IoError>(create, "MinimalStore: no such file");
    const auto id = static_cast<FileId>(files_.size());
    files_.emplace_back();
    by_name_.emplace(name, id);
    return id;
  }
  void close(FileId) override {}
  [[nodiscard]] std::uint64_t size(FileId id) const override {
    return files_.at(id).size();
  }
  void truncate(FileId id, std::uint64_t n) override { files_.at(id).resize(n); }
  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    read_calls++;
    const auto& data = files_.at(id);
    if (offset >= data.size()) return 0;
    const std::size_t n =
        std::min<std::size_t>(out.size(), data.size() - offset);
    if (n > 0) std::memcpy(out.data(), data.data() + offset, n);
    return n;
  }
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override {
    write_calls++;
    auto& file = files_.at(id);
    if (offset + data.size() > file.size()) file.resize(offset + data.size());
    if (!data.empty()) {
      std::memcpy(file.data() + offset, data.data(), data.size());
    }
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return by_name_.contains(name);
  }
  [[nodiscard]] FileId lookup(const std::string& name) const override {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kInvalidFile : it->second;
  }
  void remove(const std::string& name) override { by_name_.erase(name); }

  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;

 private:
  std::vector<std::vector<std::byte>> files_;
  std::unordered_map<std::string, FileId> by_name_;
};

TEST(BackingStoreFallback, WritevFallsBackToOneWritePerPart) {
  MinimalStore store;
  const FileId id = store.open("f", true);
  const std::string a = "12", b = "34", c = "56";
  std::vector<std::span<const std::byte>> parts{as_bytes(a), as_bytes(b),
                                                as_bytes(c)};
  store.writev(id, 0, parts);
  EXPECT_EQ(store.write_calls, 3u);
  std::vector<std::byte> buf(6);
  EXPECT_EQ(store.read(id, 0, buf), 6u);
  EXPECT_EQ(to_string(buf, 6), "123456");
}

TEST(BackingStoreFallback, ReadvFallsBackToOneReadPerPart) {
  MinimalStore store;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abcdefgh"));
  store.read_calls = 0;
  std::vector<std::byte> a(3), b(3), c(2);
  std::vector<std::span<std::byte>> parts{a, b, c};
  EXPECT_EQ(store.readv(id, 0, parts), 8u);
  EXPECT_EQ(store.read_calls, 3u);
  EXPECT_EQ(to_string(a, 3), "abc");
  EXPECT_EQ(to_string(b, 3), "def");
  EXPECT_EQ(to_string(c, 2), "gh");
}

TEST(BackingStoreFallback, ReadvFallbackStopsAtTheFirstShortRead) {
  MinimalStore store;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abcde"));
  store.read_calls = 0;
  std::vector<std::byte> a(4), b(4), c(4, std::byte{'?'});
  std::vector<std::span<std::byte>> parts{a, b, c};
  // Part b comes back short (1 of 4 bytes): the fallback must stop there
  // and never issue the read for part c.
  EXPECT_EQ(store.readv(id, 0, parts), 5u);
  EXPECT_EQ(store.read_calls, 2u);
  EXPECT_EQ(static_cast<char>(c[0]), '?');
}

TEST(BackingStoreFallback, ReadvFallbackTreatsZeroLengthPartsAsProgress) {
  MinimalStore store;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("wxyz"));
  store.read_calls = 0;
  std::vector<std::byte> a(2), c(2);
  std::span<std::byte> empty;
  // A zero-length part reads zero bytes, which must not register as a
  // short read that ends the scatter early.
  std::vector<std::span<std::byte>> parts{a, empty, c};
  EXPECT_EQ(store.readv(id, 0, parts), 4u);
  EXPECT_EQ(to_string(a, 2), "wx");
  EXPECT_EQ(to_string(c, 2), "yz");
}

TEST(BackingStoreFallback, ReadvFallbackPastEofReturnsZero) {
  MinimalStore store;
  const FileId id = store.open("f", true);
  store.write(id, 0, as_bytes("abc"));
  std::vector<std::byte> a(4);
  std::vector<std::span<std::byte>> parts{a};
  EXPECT_EQ(store.readv(id, 100, parts), 0u);
}

TEST(RealFileStore, RefusesNestedNames) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  EXPECT_THROW(store.open("a/b", true), util::IoError);
  EXPECT_THROW(store.open("", true), util::IoError);
}

TEST(RealFileStore, FilesAppearUnderRoot) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId id = store.open("visible.bin", true);
  store.write(id, 0, as_bytes("x"));
  store.close(id);
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "visible.bin"));
}

TEST(RealFileStore, IdleFdCacheKeepsDescriptorsUsableAcrossReopen) {
  util::TempDir dir;
  RealFileStore store(dir.path(), /*idle_fd_cache=*/4);
  const FileId id = store.open("hot.bin", true);
  store.write(id, 0, as_bytes("abc"));
  store.close(id);
  // With the cache, the id stays usable after close (the descriptor is
  // parked, not retired) and a reopen is a pure hash hit.
  std::vector<std::byte> buf(3);
  EXPECT_EQ(store.read(id, 0, buf), 3u);
  EXPECT_EQ(to_string(buf, 3), "abc");
  const FileId again = store.open("hot.bin", false);
  EXPECT_EQ(again, id);
  store.close(again);
}

TEST(RealFileStore, IdleFdCacheEvictsBeyondCap) {
  util::TempDir dir;
  RealFileStore store(dir.path(), /*idle_fd_cache=*/2);
  // Three one-shot files cycle through a cache of two: the oldest idle
  // descriptor is really closed, and its id goes back to strict
  // operations-fail-after-close semantics until reopened.
  const FileId a = store.open("a.bin", true);
  const FileId b = store.open("b.bin", true);
  const FileId c = store.open("c.bin", true);
  store.write(a, 0, as_bytes("A"));
  store.close(a);
  store.close(b);
  store.close(c);  // cache holds {b, c}; a was trimmed
  std::vector<std::byte> buf(1);
  EXPECT_THROW(static_cast<void>(store.read(a, 0, buf)), util::IoError);
  // Reopening a revives the same id over the same bytes.
  EXPECT_EQ(store.open("a.bin", false), a);
  EXPECT_EQ(store.read(a, 0, buf), 1u);
  EXPECT_EQ(to_string(buf, 1), "A");
  store.close(a);
}

TEST(RealFileStore, IdleCachedFileCanBeRemoved) {
  util::TempDir dir;
  RealFileStore store(dir.path(), /*idle_fd_cache=*/4);
  const FileId id = store.open("gone.bin", true);
  store.write(id, 0, as_bytes("x"));
  store.close(id);  // descriptor parked in the cache
  store.remove("gone.bin");
  EXPECT_FALSE(store.exists("gone.bin"));
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "gone.bin"));
}

TEST(RealFileStore, SizeCacheTracksWritesWritevAndTruncate) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId id = store.open("sz.bin", true);
  EXPECT_EQ(store.size(id), 0u);  // first query fstats and caches
  store.write(id, 0, as_bytes("0123456789"));
  EXPECT_EQ(store.size(id), 10u);
  store.write(id, 4, as_bytes("abc"));  // overwrite inside: no growth
  EXPECT_EQ(store.size(id), 10u);
  const std::string tail = "TAIL";
  std::vector<std::span<const std::byte>> parts{as_bytes(tail)};
  store.writev(id, 20, parts);  // gather extends past a hole
  EXPECT_EQ(store.size(id), 24u);
  store.truncate(id, 7);
  EXPECT_EQ(store.size(id), 7u);
  // The cached value matches what a fresh stat of the real file says.
  EXPECT_EQ(std::filesystem::file_size(dir.path() / "sz.bin"), 7u);
  store.close(id);
}

TEST(RealFileStore, ExistsAnswersFromTheNameTable) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  EXPECT_FALSE(store.exists("k.bin"));
  const FileId id = store.open("k.bin", true);
  EXPECT_TRUE(store.exists("k.bin"));
  store.close(id);
  // Closed (and with no idle cache, retired): the binding still proves
  // existence without a stat.
  EXPECT_TRUE(store.exists("k.bin"));
  store.remove("k.bin");
  EXPECT_FALSE(store.exists("k.bin"));
}

TEST(SimFileStore, AccumulatesModelTime) {
  SimFileStore store(2, 64 * 1024);
  const FileId id = store.open("f", true);
  EXPECT_DOUBLE_EQ(store.consume_model_ms(), 0.0);
  std::vector<std::byte> big(1 << 20);
  store.write(id, 0, big);
  const double t = store.consume_model_ms();
  EXPECT_GT(t, 0.0);
  EXPECT_DOUBLE_EQ(store.consume_model_ms(), 0.0);  // drained
  store.close(id);
}

TEST(SimFileStore, RemoveOfOpenFileFails) {
  SimFileStore store(1, 4096);
  const FileId id = store.open("f", true);
  EXPECT_THROW(store.remove("f"), util::IoError);
  store.close(id);
  store.remove("f");
  EXPECT_FALSE(store.exists("f"));
}

}  // namespace
}  // namespace clio::io
