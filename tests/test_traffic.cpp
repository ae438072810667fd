// Traffic pattern and injection process properties.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "topology/dragonfly.hpp"
#include "traffic/traffic.hpp"

namespace flexnet {
namespace {

TEST(UniformPattern, NeverPicksSelfAndCoversAll) {
  UniformPattern pattern(16);
  Rng rng(1);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 16000; ++i) {
    const NodeId dst = pattern.destination(/*src=*/5, rng);
    ASSERT_NE(dst, 5);
    ASSERT_GE(dst, 0);
    ASSERT_LT(dst, 16);
    ++counts[static_cast<std::size_t>(dst)];
  }
  EXPECT_EQ(counts[5], 0);
  for (int n = 0; n < 16; ++n) {
    if (n == 5) continue;
    EXPECT_NEAR(counts[static_cast<std::size_t>(n)], 16000.0 / 15, 200)
        << "node " << n;
  }
}

TEST(AdversarialPattern, TargetsNextGroupOnly) {
  const Dragonfly topo({2, 4, 2});
  AdversarialPattern pattern(topo, 1);
  Rng rng(3);
  for (NodeId src = 0; src < topo.num_nodes(); src += 7) {
    const GroupId src_group = topo.group_of(topo.router_of_node(src));
    for (int i = 0; i < 50; ++i) {
      const NodeId dst = pattern.destination(src, rng);
      EXPECT_EQ(topo.group_of(topo.router_of_node(dst)),
                (src_group + 1) % topo.num_groups());
    }
  }
}

TEST(AdversarialPattern, CoversWholeTargetGroup) {
  const Dragonfly topo({2, 4, 2});
  AdversarialPattern pattern(topo, 1);
  Rng rng(5);
  std::vector<int> counts(static_cast<std::size_t>(topo.num_nodes()), 0);
  for (int i = 0; i < 8000; ++i)
    ++counts[static_cast<std::size_t>(pattern.destination(0, rng))];
  // Group 1 holds nodes of routers 4..7 -> node ids 8..15 (p=2).
  for (NodeId n = 8; n < 16; ++n)
    EXPECT_GT(counts[static_cast<std::size_t>(n)], 0) << n;
}

TEST(AdversarialPattern, OffsetWraps) {
  const Dragonfly topo({2, 4, 2});
  AdversarialPattern pattern(topo, 3);
  Rng rng(7);
  const NodeId src = topo.num_nodes() - 1;  // last group
  const GroupId src_group = topo.group_of(topo.router_of_node(src));
  const NodeId dst = pattern.destination(src, rng);
  EXPECT_EQ(topo.group_of(topo.router_of_node(dst)),
            (src_group + 3) % topo.num_groups());
}

TEST(BernoulliProcess, MatchesLoad) {
  const auto proc = InjectionProcess::bernoulli(/*load=*/0.4, /*packet_size=*/8);
  EXPECT_EQ(proc.name(), "bernoulli");
  InjectionState state;
  Rng rng(11);
  int fired = 0;
  constexpr int kCycles = 200000;
  for (int i = 0; i < kCycles; ++i) {
    const Emission e = proc.step(state, rng);
    // Every Bernoulli packet is its own burst (a fresh destination).
    ASSERT_NE(e, Emission::kPacket);
    if (e == Emission::kNewBurst) ++fired;
  }
  // 0.4 phits/cycle / 8 phits per packet = 0.05 packets/cycle.
  EXPECT_NEAR(fired / static_cast<double>(kCycles), 0.05, 0.002);
}

TEST(OnOffProcess, MatchesLoadAcrossRates) {
  Rng rng(13);
  for (double load : {0.2, 0.5, 0.9}) {
    const auto proc =
        InjectionProcess::on_off(load, /*packet_size=*/8, /*mean_burst=*/5.0);
    InjectionState state;
    int fired = 0;
    constexpr int kCycles = 400000;
    for (int i = 0; i < kCycles; ++i)
      if (proc.step(state, rng) != Emission::kNone) ++fired;
    EXPECT_NEAR(fired * 8.0 / kCycles, load, 0.03) << "load " << load;
  }
}

TEST(OnOffProcess, MeanBurstLengthIsFive) {
  const auto proc =
      InjectionProcess::on_off(/*load=*/0.5, /*packet_size=*/8, /*mean_burst=*/5.0);
  EXPECT_EQ(proc.name(), "onoff");
  InjectionState state;
  Rng rng(17);
  std::int64_t bursts = 0;
  std::int64_t packets = 0;
  for (int i = 0; i < 1000000; ++i) {
    const Emission e = proc.step(state, rng);
    if (e != Emission::kNone) ++packets;
    if (e == Emission::kNewBurst) ++bursts;
  }
  ASSERT_GT(bursts, 100);
  EXPECT_NEAR(static_cast<double>(packets) / static_cast<double>(bursts), 5.0,
              0.25);
}

TEST(OnOffProcess, BackToBackWithinBurst) {
  // While ON, packets are generated exactly every packet_size cycles.
  const auto proc =
      InjectionProcess::on_off(/*load=*/0.5, /*packet_size=*/4, /*mean_burst=*/50.0);
  InjectionState state;
  Rng rng(19);
  int last_fire = -1;
  for (int i = 0; i < 5000; ++i) {
    const Emission e = proc.step(state, rng);
    if (e != Emission::kNone) {
      if (last_fire >= 0 && e == Emission::kPacket) {
        EXPECT_EQ(i - last_fire, 4);
      }
      last_fire = i;
    }
  }
}

TEST(OnOffProcess, FullLoadNeverSleeps) {
  const auto proc =
      InjectionProcess::on_off(/*load=*/1.0, /*packet_size=*/8, /*mean_burst=*/5.0);
  InjectionState state;
  Rng rng(23);
  int fired = 0;
  for (int i = 0; i < 80000; ++i)
    if (proc.step(state, rng) != Emission::kNone) ++fired;
  EXPECT_NEAR(fired * 8.0 / 80000.0, 1.0, 0.02);
}

TEST(MakePattern, FactoryMapsNames) {
  const Dragonfly topo({2, 4, 2});
  EXPECT_EQ(make_pattern("uniform", topo)->name(), "uniform");
  EXPECT_EQ(make_pattern("bursty", topo)->name(), "uniform");  // dest model
  EXPECT_EQ(make_pattern("adversarial", topo)->name(), "adversarial+1");
  EXPECT_THROW(make_pattern("hotspot", topo), std::invalid_argument);
}

}  // namespace
}  // namespace flexnet
