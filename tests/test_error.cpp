#include "common/error.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace aspe {
namespace {

/// what() of the InvalidArgument `fn` throws; fails the test if it throws
/// anything else or nothing.
template <class Fn>
std::string invalid_argument_text(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "no InvalidArgument thrown";
  return {};
}

TEST(Require, LiteralMessageThrowsInvalidArgumentWithExactText) {
  EXPECT_EQ(invalid_argument_text([] {
              require(false, "dot: length mismatch");
            }),
            "dot: length mismatch");
  // An InvalidArgument is also an aspe::Error.
  EXPECT_THROW(require(false, "contract"), Error);
}

TEST(Require, StringMessageThrowsInvalidArgumentWithExactText) {
  const std::string name = "rank";
  EXPECT_EQ(invalid_argument_text([&] {
              require(false, "missing required flag --" + name);
            }),
            "missing required flag --rank");
}

TEST(Require, MessageIsTheViewNotTheBuffer) {
  // The view's length bounds the message, not a terminating NUL.
  const std::string_view prefix("bounded message tail", 15);
  EXPECT_EQ(invalid_argument_text([&] { require(false, prefix); }),
            "bounded message");
}

TEST(Require, PassingCheckThrowsNothing) {
  EXPECT_NO_THROW(require(true, "never raised"));
  EXPECT_NO_THROW(require(true, std::string("never raised either")));
}

}  // namespace
}  // namespace aspe
