#include "common/options.hpp"

#include <gtest/gtest.h>

namespace flexnet {
namespace {

TEST(Options, ParsesKeyValuesAndIgnoresBareTokens) {
  const char* argv[] = {"prog", "load=0.6", "seed=3", "--verbose", "vcs=4/2"};
  const auto opts = Options::parse(5, argv);
  EXPECT_TRUE(opts.has("load"));
  EXPECT_EQ(opts.get("load", ""), "0.6");
  EXPECT_EQ(opts.get("seed", ""), "3");
  EXPECT_EQ(opts.get("vcs", ""), "4/2");
  EXPECT_FALSE(opts.has("--verbose"));
}

TEST(Options, DefaultsWhenMissing) {
  const auto opts = Options::parse_string("");
  EXPECT_FALSE(opts.has("x"));
  EXPECT_EQ(opts.get("x", "d"), "d");
}

TEST(Options, SetOverrides) {
  auto opts = Options::parse_string("a=1");
  opts.set("a", "2");
  EXPECT_EQ(opts.get("a", ""), "2");
}

}  // namespace
}  // namespace flexnet
