// Supporting machinery: HopSeq, Metrics windows, SimConfig overrides, and
// the experiment-harness helpers flexnet_run is built on.
#include <gtest/gtest.h>

#include "core/hop_seq.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"

namespace flexnet {
namespace {

constexpr LinkType kL = LinkType::kLocal;
constexpr LinkType kG = LinkType::kGlobal;

// --- HopSeq.

TEST(HopSeq, BasicOperations) {
  HopSeq seq{kL, kG, kL};
  EXPECT_EQ(seq.size(), 3);
  EXPECT_EQ(seq.count(kL), 2);
  EXPECT_EQ(seq.count(kG), 1);
  EXPECT_EQ(seq.to_string(), "lgl");
  EXPECT_FALSE(seq.empty());
}

TEST(HopSeq, TailDropsFirstHop) {
  HopSeq seq{kL, kG, kL};
  EXPECT_EQ(seq.tail().to_string(), "gl");
  EXPECT_EQ(seq.tail().tail().tail().size(), 0);
}

TEST(HopSeq, ConcatenationBuildsValiantPaths) {
  const HopSeq first{kL, kG, kL};
  const HopSeq second{kL, kG, kL};
  EXPECT_EQ((first + second).to_string(), "lgllgl");
}

TEST(HopSeq, EqualityAndIteration) {
  HopSeq a{kL, kG};
  HopSeq b{kL, kG};
  HopSeq c{kG, kL};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  int hops = 0;
  for (LinkType t : a) {
    (void)t;
    ++hops;
  }
  EXPECT_EQ(hops, 2);
}

// --- Metrics.

Packet mk(Cycle created, int size = 8, MsgClass cls = MsgClass::kRequest) {
  Packet p;
  p.created = created;
  p.size = size;
  p.cls = cls;
  p.hops = 3;
  return p;
}

TEST(Metrics, CountsOnlyInsideWindow) {
  Metrics m;
  m.on_generated(8);                 // before window: in-flight only
  m.on_consumed(mk(0), 50);
  m.begin_window(100);
  m.on_generated(8);
  m.on_consumed(mk(100), 250);
  m.end_window(200);
  m.on_generated(8);                 // after window
  m.on_consumed(mk(200), 260);

  EXPECT_EQ(m.generated_packets(), 3);
  EXPECT_EQ(m.consumed_packets(), 3);
  EXPECT_EQ(m.window_cycles(), 100);
  // Only the in-window packet contributes to rates and latency.
  EXPECT_DOUBLE_EQ(m.offered_load(/*nodes=*/1), 8.0 / 100.0);
  EXPECT_DOUBLE_EQ(m.accepted_load(1), 8.0 / 100.0);
  EXPECT_DOUBLE_EQ(m.latency().mean(), 150.0);
}

TEST(Metrics, PerClassLatency) {
  Metrics m;
  m.begin_window(0);
  m.on_consumed(mk(0, 8, MsgClass::kRequest), 100);
  m.on_consumed(mk(0, 8, MsgClass::kReply), 300);
  m.end_window(1000);
  EXPECT_DOUBLE_EQ(m.latency_of(MsgClass::kRequest).mean(), 100.0);
  EXPECT_DOUBLE_EQ(m.latency_of(MsgClass::kReply).mean(), 300.0);
  EXPECT_DOUBLE_EQ(m.latency().mean(), 200.0);
}

TEST(Metrics, InFlightBalance) {
  Metrics m;
  for (int i = 0; i < 5; ++i) m.on_generated(8);
  EXPECT_EQ(m.in_flight(), 5);
  m.on_consumed(mk(0), 10);
  EXPECT_EQ(m.in_flight(), 4);
}

// --- Experiment helpers.

TEST(Experiment, LoadPointsAreInclusiveAndEven) {
  const auto pts = load_points(0.2, 1.0, 5);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts.front(), 0.2);
  EXPECT_DOUBLE_EQ(pts.back(), 1.0);
  EXPECT_DOUBLE_EQ(pts[1] - pts[0], 0.2);
}

TEST(Experiment, SweepResultMaxima) {
  SweepResult sweep;
  for (double acc : {0.3, 0.7, 0.5}) {
    SweepRow row;
    row.result.accepted = acc;
    sweep.rows.push_back(row);
  }
  EXPECT_DOUBLE_EQ(sweep.max_accepted(), 0.7);
  EXPECT_DOUBLE_EQ(sweep.saturation_accepted(), 0.5);
}

TEST(Experiment, RunLoadSweepFillsRows) {
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 1000;
  auto sweeps = SweepRunner(1).run({{"test", cfg}}, {0.1, 0.3}, 1);
  ASSERT_EQ(sweeps.size(), 1u);
  ASSERT_EQ(sweeps[0].rows.size(), 2u);
  EXPECT_NEAR(sweeps[0].rows[0].result.accepted, 0.1, 0.03);
  EXPECT_NEAR(sweeps[0].rows[1].result.accepted, 0.3, 0.03);
}

TEST(Experiment, RunAveragedUsesDistinctSeeds) {
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 1000;
  cfg.load = 0.4;
  const SimResult avg =
      SweepRunner(1).run({{"point", cfg}}, {cfg.load}, 2)[0].rows[0].result;
  EXPECT_NEAR(avg.accepted, 0.4, 0.03);
  EXPECT_GT(avg.consumed_packets, 0);
}

// --- SimConfig.

TEST(SimConfig, ApplyOverrides) {
  SimConfig cfg;
  cfg.apply(Options::parse_string(
      "policy=flexvc vcs=8/4 load=0.75 traffic=bursty speedup=1 seed=42 "
      "df_h=4 reactive=true"));
  EXPECT_EQ(cfg.policy, "flexvc");
  EXPECT_EQ(cfg.vcs, "8/4");
  EXPECT_DOUBLE_EQ(cfg.load, 0.75);
  EXPECT_EQ(cfg.traffic, "bursty");
  EXPECT_EQ(cfg.speedup, 1);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.dragonfly.h, 4);
  EXPECT_TRUE(cfg.reactive);
}

TEST(SimConfig, PaperScaleFlag) {
  SimConfig cfg;
  cfg.apply(Options::parse_string("paper_scale=1"));
  EXPECT_EQ(cfg.dragonfly.num_nodes(), 16512);
}

TEST(SimConfig, SummaryMentionsKeyFields) {
  SimConfig cfg;
  cfg.policy = "flexvc";
  cfg.vcs = "4/2";
  const std::string s = cfg.summary();
  EXPECT_NE(s.find("flexvc"), std::string::npos);
  EXPECT_NE(s.find("4/2"), std::string::npos);
}

}  // namespace
}  // namespace flexnet
