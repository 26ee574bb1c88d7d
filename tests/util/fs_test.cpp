#include "util/fs.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace clio::util {
namespace {

/// The sample pattern computed one byte at a time, as its definition
/// reads: byte `abs` is bits 8*(abs % 8).. of the SplitMix64 hash of lane
/// abs / 8.
void reference_sample_bytes(std::uint64_t offset, std::span<std::byte> out,
                            std::uint64_t seed) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t abs = offset + i;
    SplitMix64 sm(seed ^ ((abs / 8) * 0x9e3779b97f4a7c15ULL + 1));
    out[i] = static_cast<std::byte>((sm.next() >> ((abs % 8) * 8)) & 0xff);
  }
}

TEST(Fs, WriteThenReadRoundTrips) {
  TempDir dir;
  const std::string text = "hello, managed I/O";
  write_text_file(dir.file("a.txt"), text);
  EXPECT_EQ(read_text_file(dir.file("a.txt")), text);
}

TEST(Fs, WriteTruncatesExisting) {
  TempDir dir;
  write_text_file(dir.file("a.txt"), "long original content");
  write_text_file(dir.file("a.txt"), "short");
  EXPECT_EQ(read_text_file(dir.file("a.txt")), "short");
}

TEST(Fs, ReadMissingFileThrows) {
  TempDir dir;
  EXPECT_THROW(read_file(dir.file("missing.bin")), IoError);
}

TEST(Fs, FileSizeMatches) {
  TempDir dir;
  write_text_file(dir.file("a.txt"), std::string(1234, 'x'));
  EXPECT_EQ(clio::util::file_size(dir.file("a.txt")), 1234u);
}

TEST(Fs, FileSizeMissingThrows) {
  TempDir dir;
  EXPECT_THROW(static_cast<void>(clio::util::file_size(dir.file("missing"))),
               IoError);
}

TEST(Fs, EmptyFileRoundTrips) {
  TempDir dir;
  write_file(dir.file("empty"), {});
  EXPECT_TRUE(read_file(dir.file("empty")).empty());
  EXPECT_EQ(clio::util::file_size(dir.file("empty")), 0u);
}

TEST(SampleFile, HasExactSize) {
  TempDir dir;
  create_sample_file(dir.file("sample"), 100000);
  EXPECT_EQ(clio::util::file_size(dir.file("sample")), 100000u);
}

TEST(SampleFile, ContentMatchesExpectedPattern) {
  TempDir dir;
  create_sample_file(dir.file("sample"), 4096, /*seed=*/7);
  const auto data = read_file(dir.file("sample"));
  std::vector<std::byte> expected(4096);
  expected_sample_bytes(0, expected, /*seed=*/7);
  EXPECT_EQ(std::memcmp(data.data(), expected.data(), 4096), 0);
}

TEST(SampleFile, WindowsAreOffsetIndependent) {
  // Reading bytes [100, 200) of the file must equal the generator's output
  // for offset 100 regardless of chunking during creation.
  TempDir dir;
  create_sample_file(dir.file("sample"), 3 * kMiB + 17, /*seed=*/9);
  const auto data = read_file(dir.file("sample"));
  std::vector<std::byte> expected(200);
  expected_sample_bytes(kMiB - 100, expected, /*seed=*/9);
  EXPECT_EQ(std::memcmp(data.data() + kMiB - 100, expected.data(), 200), 0);
}

TEST(SampleFile, DifferentSeedsDiffer) {
  std::vector<std::byte> a(64);
  std::vector<std::byte> b(64);
  expected_sample_bytes(0, a, 1);
  expected_sample_bytes(0, b, 2);
  EXPECT_NE(std::memcmp(a.data(), b.data(), 64), 0);
}

TEST(SampleFile, MatchesTheByteAtATimeReference) {
  // Every offset % 8, short windows (heads and tails within one or two
  // lanes) and long ones up to 1 MiB + 17, under three seeds.
  constexpr std::size_t kLong = kMiB + 17;
  Rng rng(0x5a3b1e);
  std::vector<std::byte> got;
  std::vector<std::byte> want;
  int windows = 0;
  for (const std::uint64_t seed : {42ULL, 7ULL, 0xfeedfaceULL}) {
    for (std::uint64_t residue = 0; residue < 8; ++residue) {
      for (int k = 0; k < 44; ++k) {
        const std::uint64_t offset =
            (rng.uniform_u64(std::uint64_t{1} << 44) & ~std::uint64_t{7}) +
            residue;
        std::size_t length = static_cast<std::size_t>(rng.uniform_u64(25));
        if (k == 0) length = kLong;
        if (k == 1 || k == 2) {
          length = static_cast<std::size_t>(rng.uniform_u64(kLong + 1));
        }
        got.assign(length, std::byte{0xee});
        want.assign(length, std::byte{0x11});
        expected_sample_bytes(offset, got, seed);
        reference_sample_bytes(offset, want, seed);
        ASSERT_EQ(got, want) << "seed " << seed << " offset " << offset
                             << " length " << length;
        ++windows;
      }
    }
  }
  EXPECT_GE(windows, 1000);
}

TEST(SampleFile, GoldenBytesStayFixed) {
  // Absolute values, so a change to the lane hash itself fails too.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t offset;
    std::array<std::uint8_t, 8> bytes;
  };
  const Golden golden[] = {
      {42, 0, {0x88, 0xef, 0x4f, 0xeb, 0x90, 0xec, 0x69, 0xba}},
      {42, 5, {0xec, 0x69, 0xba, 0x70, 0xed, 0xa6, 0x7a, 0x61}},
      {42, 1000003, {0x0c, 0x69, 0xad, 0xce, 0xc1, 0x03, 0xb2, 0x32}},
      {7, 4093, {0xaf, 0x80, 0x49, 0xf2, 0xbf, 0x58, 0x89, 0x35}},
      {9, (std::uint64_t{1} << 40) + 3,
       {0x70, 0xac, 0xa4, 0x5e, 0x6d, 0x1b, 0x37, 0x23}},
  };
  for (const Golden& g : golden) {
    std::array<std::byte, 8> out{};
    expected_sample_bytes(g.offset, out, g.seed);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(static_cast<std::uint8_t>(out[i]), g.bytes[i])
          << "seed " << g.seed << " offset " << g.offset + i;
    }
  }
}

TEST(SampleFile, ZeroSizeProducesEmptyFile) {
  TempDir dir;
  create_sample_file(dir.file("sample"), 0);
  EXPECT_EQ(clio::util::file_size(dir.file("sample")), 0u);
}

}  // namespace
}  // namespace clio::util
