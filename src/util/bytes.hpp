#pragma once

#include <cstdint>

namespace clio::util {

inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * 1024;
inline constexpr std::uint64_t kGiB = 1024ULL * 1024 * 1024;

}  // namespace clio::util
