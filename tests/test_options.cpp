#include "common/options.hpp"

#include <gtest/gtest.h>

namespace flexnet {
namespace {

TEST(Options, ParsesKeyValuesAndPositional) {
  const char* argv[] = {"prog", "load=0.6", "seed=3", "--verbose", "vcs=4/2"};
  const auto opts = Options::parse(5, argv);
  EXPECT_TRUE(opts.has("load"));
  EXPECT_EQ(opts.get("load", ""), "0.6");
  EXPECT_EQ(opts.get_int("seed", 0), 3);
  EXPECT_EQ(opts.get("vcs", ""), "4/2");
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "--verbose");
}

TEST(Options, DefaultsWhenMissing) {
  const auto opts = Options::parse_string("");
  EXPECT_FALSE(opts.has("x"));
  EXPECT_EQ(opts.get("x", "d"), "d");
  EXPECT_EQ(opts.get_int("x", 7), 7);
}

TEST(Options, SetOverrides) {
  auto opts = Options::parse_string("a=1");
  opts.set("a", "2");
  EXPECT_EQ(opts.get_int("a", 0), 2);
}

}  // namespace
}  // namespace flexnet
