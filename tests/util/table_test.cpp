#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace clio::util {
namespace {

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), ConfigError);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(TextTable, RendersHeadersAndRows) {
  TextTable t({"Appl. name", "Read time (ms)"});
  t.add_row({"Data Mining", "0.0025"});
  t.add_row({"Titan", "0.002"});
  std::ostringstream oss;
  t.render(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("Appl. name"), std::string::npos);
  EXPECT_NE(out.find("Data Mining"), std::string::npos);
  EXPECT_NE(out.find("0.0025"), std::string::npos);
  EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(TextTable, ColumnsAlignAcrossRows) {
  TextTable t({"x", "y"});
  t.add_row({"short", "1"});
  t.add_row({"much-longer-cell", "2"});
  std::ostringstream oss;
  t.render(oss);
  // All lines between the rules should have the same length.
  std::istringstream in(oss.str());
  std::string line;
  std::size_t expected = 0;
  while (std::getline(in, line)) {
    if (expected == 0) expected = line.size();
    EXPECT_EQ(line.size(), expected);
  }
}

TEST(FormatMs, TinyValuesUseScientific) {
  EXPECT_EQ(format_ms(7.33e-5), "7.33E-05");
  EXPECT_EQ(format_ms(9.43e-5), "9.43E-05");
}

TEST(FormatMs, SubMillisecondUsesFourDecimals) {
  EXPECT_EQ(format_ms(0.0025), "0.0025");
  EXPECT_EQ(format_ms(0.0072), "0.0072");
}

TEST(FormatMs, LargeValuesUseFixed) {
  EXPECT_EQ(format_ms(2.1175), "2.118");
  EXPECT_EQ(format_ms(9.0181), "9.018");
}

TEST(FormatMs, ZeroIsPlain) { EXPECT_EQ(format_ms(0.0), "0.0000"); }

TEST(FormatFixed, RespectsDecimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.0, 0), "3");
}

TEST(FormatFixed, RejectsBadDecimals) {
  EXPECT_THROW(format_fixed(1.0, -1), ConfigError);
  EXPECT_THROW(format_fixed(1.0, 99), ConfigError);
}

}  // namespace
}  // namespace clio::util
