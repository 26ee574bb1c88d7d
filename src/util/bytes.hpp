#pragma once

#include <cstdint>
#include <string>

namespace clio::util {

/// Formats a byte count with binary units, e.g. 131072 -> "128.0 KiB".
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * 1024;
inline constexpr std::uint64_t kGiB = 1024ULL * 1024 * 1024;

}  // namespace clio::util
