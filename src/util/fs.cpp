#include "util/fs.hpp"

#include <fstream>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace clio::util {
namespace {

/// Deterministic byte at absolute file offset `off`: each 8-byte lane is a
/// SplitMix64 hash of its lane index, so any (offset, length) window can be
/// recomputed independently of how the file was produced.
inline std::uint64_t lane_value(std::uint64_t lane, std::uint64_t seed) {
  SplitMix64 sm(seed ^ (lane * 0x9e3779b97f4a7c15ULL + 1));
  return sm.next();
}

}  // namespace

void write_file(const std::filesystem::path& path,
                std::span<const std::byte> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  check<IoError>(out.good(), "write_file: cannot open " + path.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  check<IoError>(out.good(), "write_file: short write to " + path.string());
}

void write_text_file(const std::filesystem::path& path,
                     const std::string& text) {
  write_file(path, std::as_bytes(std::span<const char>(text.data(),
                                                       text.size())));
}

std::vector<std::byte> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  check<IoError>(in.good(), "read_file: cannot open " + path.string());
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::byte> data(size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  check<IoError>(in.good() || size == 0,
                 "read_file: short read from " + path.string());
  return data;
}

std::string read_text_file(const std::filesystem::path& path) {
  auto bytes = read_file(path);
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

std::uint64_t file_size(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  check<IoError>(!ec, "file_size: cannot stat " + path.string());
  return size;
}

void expected_sample_bytes(std::uint64_t offset, std::span<std::byte> out,
                           std::uint64_t seed) {
  // One hash per lane.  Byte b of a lane is bits 8b..8b+7 of its word,
  // taken by shifts so the output does not depend on the host byte order.
  const auto byte_of = [](std::uint64_t word, unsigned b) {
    return static_cast<std::byte>((word >> (8 * b)) & 0xff);
  };
  std::uint64_t lane = offset / 8;
  unsigned head = static_cast<unsigned>(offset % 8);  // first byte wanted
  std::byte* p = out.data();
  std::byte* const end = p + out.size();
  while (p != end) {
    const std::uint64_t word = lane_value(lane++, seed);
    if (head == 0 && end - p >= 8) {
      // A whole lane: eight constant shifts, which compile to one store.
      p[0] = byte_of(word, 0);
      p[1] = byte_of(word, 1);
      p[2] = byte_of(word, 2);
      p[3] = byte_of(word, 3);
      p[4] = byte_of(word, 4);
      p[5] = byte_of(word, 5);
      p[6] = byte_of(word, 6);
      p[7] = byte_of(word, 7);
      p += 8;
      continue;
    }
    // An unaligned head or a short tail.
    for (unsigned b = head; b < 8 && p != end; ++b) *p++ = byte_of(word, b);
    head = 0;
  }
}

void create_sample_file(const std::filesystem::path& path, std::uint64_t size,
                        std::uint64_t seed) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  check<IoError>(out.good(),
                 "create_sample_file: cannot open " + path.string());
  constexpr std::uint64_t kChunk = kMiB;
  std::vector<std::byte> chunk;
  std::uint64_t written = 0;
  while (written < size) {
    const std::uint64_t n = std::min(kChunk, size - written);
    chunk.resize(static_cast<std::size_t>(n));
    expected_sample_bytes(written, chunk, seed);
    out.write(reinterpret_cast<const char*>(chunk.data()),
              static_cast<std::streamsize>(n));
    check<IoError>(out.good(), "create_sample_file: short write");
    written += n;
  }
}

}  // namespace clio::util
