#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace flexnet {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, MergeEqualsSequential) {
  Accumulator a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.37 * i - 3;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2);
  Accumulator b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RateMeter, NormalizesPerNodePerCycle) {
  RateMeter meter;
  meter.add(800.0);
  EXPECT_DOUBLE_EQ(meter.rate(/*nodes=*/10, /*cycles=*/100), 0.8);
  meter.reset();
  EXPECT_DOUBLE_EQ(meter.rate(10, 100), 0.0);
}

}  // namespace
}  // namespace flexnet
