#include "common/hash.h"

#include <gtest/gtest.h>

namespace mecsched {
namespace {

TEST(MixTest, OrderAndStringSensitivity) {
  EXPECT_NE(hash_mix(1, 2), hash_mix(2, 1));
  EXPECT_NE(hash_string("LP-HTA"), hash_string("HGOS"));
  EXPECT_EQ(hash_string("LP-HTA"), hash_string("LP-HTA"));
}

TEST(MixTest, NegativeZeroHashesLikeZero) {
  EXPECT_EQ(hash_double(7, -0.0), hash_double(7, 0.0));
  EXPECT_NE(hash_double(7, 1.0), hash_double(7, 0.0));
}

}  // namespace
}  // namespace mecsched
