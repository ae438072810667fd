#include "core/vc_selection.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "scenario/registry.hpp"

namespace flexnet {
namespace {

std::vector<VcCandidate> three_candidates() {
  // phys 0/1/2 at positions 0/2/5.
  return {{0, 0, true}, {1, 2, true}, {2, 5, true}};
}

std::function<int(VcIndex)> credits_of(std::vector<int> table) {
  return [table = std::move(table)](VcIndex v) {
    return table[static_cast<std::size_t>(v)];
  };
}

TEST(VcSelection, RegistryMapsNames) {
  const auto& registry = vc_selection_registry();
  EXPECT_EQ(registry.at("jsq").make, VcSelection::kJsq);
  EXPECT_EQ(registry.at("highest").make, VcSelection::kHighest);
  EXPECT_EQ(registry.at("lowest").make, VcSelection::kLowest);
  EXPECT_EQ(registry.at("random").make, VcSelection::kRandom);
  EXPECT_THROW(registry.at("fifo"), std::invalid_argument);
}

TEST(VcSelection, JsqPicksMostFreeSpace) {
  Rng rng(1);
  const auto cands = three_candidates();
  EXPECT_EQ(select_vc(VcSelection::kJsq, cands, credits_of({5, 20, 10}), 8, rng), 1);
}

TEST(VcSelection, JsqTieBreaksTowardLowerPosition) {
  // Ties prefer the lower template position: packets early in their path
  // stay low, relegating high-index VCs to the later hops that have no
  // alternative (SIII-A).
  Rng rng(1);
  const auto cands = three_candidates();
  EXPECT_EQ(select_vc(VcSelection::kJsq, cands, credits_of({20, 20, 8}), 8, rng), 0);
  EXPECT_EQ(select_vc(VcSelection::kJsq, cands, credits_of({20, 20, 20}), 8, rng), 0);
}

TEST(VcSelection, HighestAndLowest) {
  Rng rng(1);
  const auto cands = three_candidates();
  EXPECT_EQ(select_vc(VcSelection::kHighest, cands, credits_of({9, 9, 9}), 8, rng), 2);
  EXPECT_EQ(select_vc(VcSelection::kLowest, cands, credits_of({9, 9, 9}), 8, rng), 0);
}

TEST(VcSelection, SkipsCandidatesWithoutCredits) {
  Rng rng(1);
  const auto cands = three_candidates();
  EXPECT_EQ(select_vc(VcSelection::kHighest, cands, credits_of({9, 9, 3}), 8, rng), 1);
  EXPECT_EQ(select_vc(VcSelection::kLowest, cands, credits_of({2, 9, 9}), 8, rng), 1);
}

TEST(VcSelection, ReturnsMinusOneWhenNoneFeasible) {
  Rng rng(1);
  const auto cands = three_candidates();
  EXPECT_EQ(select_vc(VcSelection::kJsq, cands, credits_of({1, 2, 3}), 8, rng), -1);
  EXPECT_EQ(select_vc(VcSelection::kJsq, {}, credits_of({}), 8, rng), -1);
}

TEST(VcSelection, RandomCoversAllFeasible) {
  Rng rng(123);
  const auto cands = three_candidates();
  std::map<int, int> histogram;
  for (int i = 0; i < 3000; ++i)
    ++histogram[select_vc(VcSelection::kRandom, cands, credits_of({9, 9, 9}), 8, rng)];
  ASSERT_EQ(histogram.size(), 3u);
  for (const auto& [idx, count] : histogram) {
    EXPECT_GE(idx, 0);
    EXPECT_GT(count, 800);  // roughly uniform thirds
  }
}

TEST(VcSelection, RandomExcludesInfeasible) {
  Rng rng(7);
  const auto cands = three_candidates();
  for (int i = 0; i < 200; ++i) {
    const int pick =
        select_vc(VcSelection::kRandom, cands, credits_of({9, 0, 9}), 8, rng);
    EXPECT_NE(pick, 1);
  }
}

}  // namespace
}  // namespace flexnet
