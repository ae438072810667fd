#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace flexnet {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(7);
  Rng c1 = parent.split(0);
  Rng c2 = parent.split(1);
  Rng c1_again = Rng(7).split(0);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (c1.next_u64() == c2.next_u64()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i)
    ++counts[rng.next_below(kBuckets)];
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(c, expected, 5 * std::sqrt(expected));
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  constexpr int kSamples = 100000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i)
    if (rng.next_bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / static_cast<double>(kSamples), 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.next_bernoulli(0.0));
  EXPECT_TRUE(rng.next_bernoulli(1.0));
  EXPECT_FALSE(rng.next_bernoulli(-1.0));
}

}  // namespace
}  // namespace flexnet
