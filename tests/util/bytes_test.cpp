#include "util/bytes.hpp"

#include <gtest/gtest.h>

namespace clio::util {
namespace {

TEST(FormatBytes, SmallCountsAreExact) {
  EXPECT_EQ(format_bytes(0), "0 B");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1023), "1023 B");
}

TEST(FormatBytes, BinaryUnits) {
  EXPECT_EQ(format_bytes(1024), "1.0 KiB");
  EXPECT_EQ(format_bytes(131072), "128.0 KiB");
  EXPECT_EQ(format_bytes(kGiB), "1.0 GiB");
}

}  // namespace
}  // namespace clio::util
