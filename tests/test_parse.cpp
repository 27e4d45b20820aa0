#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace tegrec::util {
namespace {

TEST(ParseDouble, AcceptsSubnormalsAndUnderflow) {
  // strtod sets ERANGE for these, but its result is the correctly rounded
  // subnormal (or zero) that the codecs write.
  EXPECT_EQ(parse_double("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse_double(" -2.5e-310 "), -2.5e-310);
  EXPECT_EQ(parse_double("1e-400"), 0.0);
}

TEST(ParseDouble, RejectsOverflowNonFiniteAndJunk) {
  for (const char* text :
       {"1e999", "-1e999", "nan", "inf", "", "  ", "10x", "1.2.3"}) {
    EXPECT_THROW(parse_double(text), std::invalid_argument) << text;
  }
}

TEST(ParseU64, RejectsSignsJunkAndOverflow) {
  EXPECT_EQ(parse_u64(" 42 "), 42u);
  for (const char* text : {"-1", "+1", "abc", "1x", "99999999999999999999"}) {
    EXPECT_THROW(parse_u64(text), std::invalid_argument) << text;
  }
}

}  // namespace
}  // namespace tegrec::util
