#include "src/common/digest.h"

#include <gtest/gtest.h>

namespace icg {
namespace {

TEST(Digest, Fnv1aKnownValues) {
  // FNV-1a published test vectors.
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Digest, ValueDigestSensitiveToContent) {
  EXPECT_NE(ValueDigest("abc", 1), ValueDigest("abd", 1));
  EXPECT_NE(ValueDigest("abc", 1), ValueDigest("abc", 2));
  EXPECT_EQ(ValueDigest("abc", 1), ValueDigest("abc", 1));
}

TEST(Digest, ConstexprUsable) {
  constexpr Digest d = Fnv1a("compile-time");
  static_assert(d != 0);
  EXPECT_NE(d, 0u);
}

}  // namespace
}  // namespace icg
