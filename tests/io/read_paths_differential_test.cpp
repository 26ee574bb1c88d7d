// Differential test of ManagedFile's read and write paths against plain
// pread on the same store.  A read or write of fewer than
// BufferPool::kCoalescePages pages stages through frames (pin_span); a
// longer one goes around the pool.  A long read (read_around) copies
// resident pages and reads the rest straight from the store; a long write
// (write_around) is one store write that the resident pages of its range
// take in place.  A seeded op mix runs over pools of 8-256 pages with 1 or
// 4 shards: writes on both sides of the threshold at any byte offset, so
// first and last pages are often partial, some extending the file, some
// flushed and some left dirty; sparse writes past EOF, which leave holes;
// long writes over pages a small read left resident clean or a small
// write left resident dirty; cold reads of other files, which force
// evictions; and reads of random spans on both sides of the threshold.
// Every read must equal a shadow copy of the file byte for byte, after a
// flush the backing file must equal it under pread, and every seed ends
// with debug_validate().
//
// CLIO_STRESS_SEED=s runs seeds 1 + 40s .. 40 + 40s instead of 1 .. 40.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "io/managed_file.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

constexpr std::size_t kPage = 256;
constexpr std::uint64_t kSeedsPerWindow = 40;
constexpr int kOpsPerSeed = 160;
constexpr std::size_t kFiles = 3;      ///< files the op mix reads and writes
constexpr std::size_t kColdFiles = 2;  ///< files only the churn reads
/// Fills the read buffer before every read, so bytes a path forgot to
/// write cannot pass for a hole's zeros.
constexpr std::byte kPoison{0xa5};

std::uint64_t first_seed() {
  const char* env = std::getenv("CLIO_STRESS_SEED");
  return env == nullptr
             ? 1
             : 1 + kSeedsPerWindow * std::strtoull(env, nullptr, 10);
}

/// The whole backing file as plain pread sees it.
std::vector<std::byte> pread_all(const std::filesystem::path& path) {
  std::vector<std::byte> out(std::filesystem::file_size(path));
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return {};
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                              static_cast<off_t>(done));
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(done);
  return out;
}

/// Bytes that differ within a page, from page to page and between writes.
void fill(std::span<std::byte> out, std::uint64_t salt) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((i * 131 + (i >> 8) + salt * 17) % 251 + 1);
  }
}

/// Where the first difference between `got` and `want` lies, or empty.
std::string first_difference(std::span<const std::byte> got,
                             std::span<const std::byte> want) {
  if (got.size() != want.size()) {
    return "length " + std::to_string(got.size()) + ", expected " +
           std::to_string(want.size());
  }
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin());
  if (g == got.end()) return {};
  const auto at = static_cast<std::size_t>(g - got.begin());
  return "byte " + std::to_string(at) + " of the span is " +
         std::to_string(static_cast<int>(*g)) + ", expected " +
         std::to_string(static_cast<int>(*w));
}

/// One seed: a managed file system over a real store in its own
/// directory, a shadow copy of each file's logical content, and the op
/// mix.  run() returns the first failure, or empty.
class Round {
 public:
  explicit Round(std::uint64_t seed) : seed_(seed), rng_(seed) {
    pool_pages_ = std::size_t{8} << rng_.uniform_u64(6);  // 8 .. 256
    shards_ = rng_.bernoulli(0.5) ? 1 : 4;
    ManagedFsOptions options;
    options.page_size = kPage;
    options.pool_pages = pool_pages_;
    options.pool_shards = shards_;
    fs_ = std::make_unique<ManagedFileSystem>(
        std::make_unique<RealFileStore>(dir_.path()), options);
    for (std::size_t f = 0; f < kFiles + kColdFiles; ++f) {
      // 20-180 pages plus a partial last page, so spans cross the
      // threshold and the EOF alike.
      std::vector<std::byte> content((20 + rng_.uniform_u64(160)) * kPage +
                                     rng_.uniform_u64(kPage));
      fill(content, seed * 8 + f);
      ManagedFile file = fs_->open(name(f), OpenMode::kTruncate);
      file.write(content);
      shadows_.push_back(std::move(content));
    }
    fs_->drop_caches();
    for (std::size_t f = 0; f < kFiles + kColdFiles; ++f) {
      streams_.push_back(fs_->open(name(f), OpenMode::kReadWrite));
    }
  }

  std::string run() {
    for (int op = 0; op < kOpsPerSeed; ++op) {
      const std::uint64_t dice = rng_.uniform_u64(100);
      const std::size_t f = rng_.uniform_u64(kFiles);
      std::string failure;
      const std::uint64_t size = shadows_[f].size();
      if (dice < 36) {
        failure = read(f);
      } else if (dice < 56) {
        // Inside the file or across its end, which extends it.
        write(f, rng_.uniform_u64(size + 1), span_length());
      } else if (dice < 62) {
        // A sparse write past EOF: the pages between stay holes.
        write(f, size + kPage * (1 + rng_.uniform_u64(40)) +
                     rng_.uniform_u64(kPage),
              span_length());
      } else if (dice < 68) {
        // Resident pages under a long write: a small read leaves a few
        // pages clean, or a small write leaves them dirty, and a write of
        // the threshold or more then covers them.
        const std::uint64_t pos = rng_.uniform_u64(size);
        const std::size_t len = 1 + rng_.uniform_u64(4 * kPage);
        if (rng_.bernoulli(0.5)) {
          failure = read_span(f, pos, len);
        } else {
          write(f, pos, len);
        }
        const std::uint64_t back =
            std::min<std::uint64_t>(pos, rng_.uniform_u64(8 * kPage));
        write(f, pos - back,
              BufferPool::kCoalescePages * kPage +
                  rng_.uniform_u64(40 * kPage));
      } else if (dice < 77) {
        failure = flush(f);
      } else if (dice < 95) {
        failure = churn();
      } else {
        fs_->drop_caches();
      }
      if (!failure.empty()) return tag(op) + failure;
    }
    fs_->pool().flush_all();
    for (std::size_t f = 0; f < kFiles; ++f) {
      if (std::string failure = compare_backing(f); !failure.empty()) {
        return tag(kOpsPerSeed) + failure;
      }
    }
    try {
      fs_->pool().debug_validate();
    } catch (const util::IoError& e) {
      return tag(kOpsPerSeed) + e.what();
    }
    return {};
  }

  [[nodiscard]] PoolStats stats() const { return fs_->pool().stats(); }

 private:
  static std::string name(std::size_t f) {
    return "f" + std::to_string(f) + ".bin";
  }

  std::string tag(int op) const {
    return "seed " + std::to_string(seed_) + " (pool " +
           std::to_string(pool_pages_) + " pages, " + std::to_string(shards_) +
           " shards) op " + std::to_string(op) + ": ";
  }

  /// A span length: half under the threshold, half at or over it.
  std::size_t span_length() {
    return rng_.bernoulli(0.5) ? 1 + rng_.uniform_u64(63 * kPage - 1)
                               : BufferPool::kCoalescePages * kPage +
                                     rng_.uniform_u64(100 * kPage);
  }

  /// A read of a random span of file `f` (before the clamp at EOF).
  std::string read(std::size_t f) {
    const std::uint64_t pos = rng_.uniform_u64(shadows_[f].size() + kPage);
    return read_span(f, pos, span_length());
  }

  /// Reads `len` bytes of file `f` at `pos` and compares them with its
  /// shadow.
  std::string read_span(std::size_t f, std::uint64_t pos, std::size_t len) {
    const std::vector<std::byte>& shadow = shadows_[f];
    std::vector<std::byte> buf(len, kPoison);
    ManagedFile& file = streams_[f];
    file.seek(pos);
    const std::size_t got = file.read(buf);
    const std::size_t want =
        pos < shadow.size() ? std::min<std::size_t>(len, shadow.size() - pos)
                            : 0;
    const std::span<const std::byte> expected =
        want == 0 ? std::span<const std::byte>()
                  : std::span<const std::byte>(shadow).subspan(pos, want);
    if (std::string diff =
            first_difference(std::span(buf).first(got), expected);
        !diff.empty()) {
      return "read of " + std::to_string(len) + " bytes at " +
             std::to_string(pos) + " of " + name(f) + ": " + diff;
    }
    if (file.size() != shadow.size()) {
      return name(f) + " has logical size " + std::to_string(file.size()) +
             ", expected " + std::to_string(shadow.size());
    }
    return {};
  }

  void write(std::size_t f, std::uint64_t offset, std::size_t len) {
    std::vector<std::byte> data(len);
    fill(data, ++generation_ * 7 + f);
    ManagedFile& file = streams_[f];
    file.seek(offset);
    file.write(data);
    std::vector<std::byte>& shadow = shadows_[f];
    if (shadow.size() < offset + len) shadow.resize(offset + len);
    std::copy(data.begin(), data.end(),
              shadow.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  /// Persists file `f` (a flush, or a flushing close and reopen), then
  /// holds the backing file to its shadow.
  std::string flush(std::size_t f) {
    if (rng_.bernoulli(0.5)) {
      fs_->pool().flush_file(streams_[f].id());
    } else {
      streams_[f].close();
      streams_[f] = fs_->open(name(f), OpenMode::kReadWrite);
    }
    return compare_backing(f);
  }

  std::string compare_backing(std::size_t f) const {
    if (std::string diff =
            first_difference(pread_all(dir_.path() / name(f)), shadows_[f]);
        !diff.empty()) {
      return "pread of flushed " + name(f) + ": " + diff;
    }
    return {};
  }

  /// Cold reads of files the mix never writes, in spans under the
  /// threshold, so they load frames and evict the mix's pages.
  std::string churn() {
    const std::size_t f = kFiles + rng_.uniform_u64(kColdFiles);
    const std::vector<std::byte>& shadow = shadows_[f];
    std::vector<std::byte> buf(kPage * (1 + rng_.uniform_u64(16)), kPoison);
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t pos = rng_.uniform_u64(shadow.size());
      streams_[f].seek(pos);
      const std::size_t got = streams_[f].read(buf);
      if (std::string diff = first_difference(
              std::span(buf).first(got),
              std::span<const std::byte>(shadow).subspan(
                  pos, std::min<std::size_t>(buf.size(), shadow.size() - pos)));
          !diff.empty()) {
        return "churn read at " + std::to_string(pos) + " of " + name(f) +
               ": " + diff;
      }
    }
    return {};
  }

  std::uint64_t seed_;
  util::Rng rng_;
  std::size_t pool_pages_ = 0;
  std::size_t shards_ = 0;
  std::uint64_t generation_ = 0;
  util::TempDir dir_{"clio-read-paths"};
  std::unique_ptr<ManagedFileSystem> fs_;
  std::vector<std::vector<std::byte>> shadows_;
  std::vector<ManagedFile> streams_;  ///< declared last: closed first
};

TEST(ReadPathsDifferential, PooledAndDirectReadsMatchTheShadowAndPread) {
  PoolStats total;
  for (std::uint64_t seed = first_seed();
       seed < first_seed() + kSeedsPerWindow; ++seed) {
    Round round(seed);
    const std::string failure = round.run();
    ASSERT_TRUE(failure.empty())
        << failure << "  (reproduce with CLIO_STRESS_SEED="
        << (seed - 1) / kSeedsPerWindow << ")";
    const PoolStats s = round.stats();
    total.direct_read_calls += s.direct_read_calls;
    total.direct_write_calls += s.direct_write_calls;
    total.hits += s.hits;
    total.gather_read_calls += s.gather_read_calls;
  }
  // Both paths ran each way, and the direct read met resident pages too.
  EXPECT_GT(total.direct_read_calls, 0u);
  EXPECT_GT(total.direct_write_calls, 0u);
  EXPECT_GT(total.gather_read_calls, 0u);
  EXPECT_GT(total.hits, 0u);
}

}  // namespace
}  // namespace clio::io
