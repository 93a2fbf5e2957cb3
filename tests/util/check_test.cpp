#include "util/check.hpp"

#include <gtest/gtest.h>

#include <string>

namespace nocw {
namespace {

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(NOCW_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(NOCW_CHECK_EQ(4, 4));
  EXPECT_NO_THROW(NOCW_CHECK_GE(5, 5));
  EXPECT_NO_THROW(NOCW_CHECK_LT(-1, 0));
}

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(NOCW_CHECK(false), CheckError);
  EXPECT_THROW(NOCW_CHECK_EQ(1, 2), CheckError);
  EXPECT_THROW(NOCW_CHECK_NE(3, 3), CheckError);
  EXPECT_THROW(NOCW_CHECK_GT(1, 1), CheckError);
}

TEST(Check, CheckErrorIsALogicError) {
  // Pre-existing callers catch std::logic_error; the contract layer must
  // stay substitutable for them.
  EXPECT_THROW(NOCW_CHECK(false), std::logic_error);
}

TEST(Check, MessageCapturesExpressionText) {
  try {
    const int credits = -1;
    NOCW_CHECK_GE(credits, 0);
    FAIL() << "check did not throw";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("credits >= 0"), std::string::npos) << msg;
  }
}

TEST(Check, MessageCapturesOperandValues) {
  try {
    const int have = 3;
    const int want = 5;
    NOCW_CHECK_EQ(have, want);
    FAIL() << "check did not throw";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("3 vs 5"), std::string::npos) << msg;
  }
}

TEST(Check, MessageCapturesFileAndLine) {
  try {
    NOCW_CHECK(false);
    FAIL() << "check did not throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("check_test.cpp"),
              std::string::npos);
  }
}

TEST(Check, OperandsEvaluatedExactlyOnce) {
  int evals = 0;
  const auto bump = [&evals] { return ++evals; };
  NOCW_CHECK_GE(bump(), 1);
  EXPECT_EQ(evals, 1);
}

}  // namespace
}  // namespace nocw
