// End-to-end integration and property tests: packet conservation, deadlock
// freedom across the configuration matrix, latency bounds, throughput
// sanity against structural limits, failure injection, determinism.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/simulator.hpp"

namespace flexnet {
namespace {

SimConfig quick_config() {
  SimConfig cfg;
  cfg.warmup = 2000;
  cfg.measure = 4000;
  cfg.watchdog = 6000;
  return cfg;
}

SimResult run(const SimConfig& cfg) { return Simulator(cfg).run(); }

// ---------------------------------------------------------------- basics

TEST(Integration, AcceptedMatchesOfferedBelowSaturation) {
  SimConfig cfg = quick_config();
  cfg.load = 0.3;
  const SimResult r = run(cfg);
  EXPECT_FALSE(r.deadlock);
  EXPECT_NEAR(r.offered, 0.3, 0.02);
  EXPECT_NEAR(r.accepted, r.offered, 0.02);
}

TEST(Integration, LatencyLowerBound) {
  // Minimum latency = injection serialization + per-hop pipeline and link
  // latencies; an average below the single-local-hop bound means broken
  // timestamps.
  SimConfig cfg = quick_config();
  cfg.load = 0.05;
  const SimResult r = run(cfg);
  const int min_one_hop = cfg.packet_size + cfg.pipeline_latency +
                          cfg.local_latency + cfg.packet_size;
  EXPECT_GT(r.avg_latency, min_one_hop);
  // And far below the congested regime at 5% load.
  EXPECT_LT(r.avg_latency, 400);
}

TEST(Integration, AverageHopsMatchLglStructure) {
  SimConfig cfg = quick_config();
  cfg.load = 0.2;
  const SimResult r = run(cfg);
  // Dragonfly MIN paths are 0..3 hops; uniform traffic averages above 2.
  EXPECT_GT(r.avg_hops, 1.8);
  EXPECT_LT(r.avg_hops, 3.0);
}

TEST(Integration, DeterministicForSameSeed) {
  SimConfig cfg = quick_config();
  cfg.load = 0.6;
  cfg.policy = "flexvc";
  cfg.vcs = "4/2";
  const SimResult a = run(cfg);
  const SimResult b = run(cfg);
  EXPECT_EQ(a.consumed_packets, b.consumed_packets);
  EXPECT_DOUBLE_EQ(a.accepted, b.accepted);
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
}

TEST(Integration, DifferentSeedsDiffer) {
  SimConfig cfg = quick_config();
  cfg.load = 0.6;
  const SimResult a = run(cfg);
  cfg.seed = 99;
  const SimResult b = run(cfg);
  EXPECT_NE(a.consumed_packets, b.consumed_packets);
}

TEST(Integration, PacketConservation) {
  SimConfig cfg = quick_config();
  cfg.load = 0.5;
  Simulator sim(cfg);
  const SimResult r = sim.run();
  ASSERT_FALSE(r.deadlock);
  const Metrics& m = sim.network()->metrics();
  // generated = consumed + alive; alive = network + source queues >= net.
  EXPECT_GE(m.generated_packets(), m.consumed_packets());
  EXPECT_GE(m.in_flight(), sim.network()->packets_in_network());
}

// ------------------------------------------------- structural throughput

TEST(Integration, AdvMinCollapsesToSingleLink) {
  // ADV+1 with MIN: all 8 nodes of a group share one global link ->
  // accepted exactly 1/8 phit/node/cycle at this scale.
  SimConfig cfg = quick_config();
  cfg.traffic = "adversarial";
  cfg.load = 0.5;
  const SimResult r = run(cfg);
  EXPECT_NEAR(r.accepted, 1.0 / 8, 0.01);
}

TEST(Integration, AdvValSustainsLoad) {
  SimConfig cfg = quick_config();
  cfg.traffic = "adversarial";
  cfg.routing = "val";
  cfg.vcs = "4/2";
  cfg.load = 0.4;
  const SimResult r = run(cfg);
  EXPECT_NEAR(r.accepted, 0.4, 0.02);
  EXPECT_GT(r.avg_hops, 3.5);  // Valiant paths are long
}

TEST(Integration, FlexVcBeatsBaselineOnUniformSaturation) {
  // The paper's headline: FlexVC with the VAL-provisioned 4/2 VCs lifts
  // MIN/UN saturation throughput well above the 2/1 baseline (Fig 5a).
  SimConfig cfg = quick_config();
  cfg.measure = 6000;
  cfg.load = 1.0;
  const double base = run(cfg).accepted;
  cfg.policy = "flexvc";
  cfg.vcs = "4/2";
  const double flex = run(cfg).accepted;
  EXPECT_GT(flex, base * 1.05);
}

// ------------------------------------------------------- failure injection

TEST(Integration, DamqWithoutReservationDeadlocks) {
  // Fig 10 / SVI-C: "With no private reservation, the system presents
  // deadlock" — the watchdog must fire.
  SimConfig cfg = quick_config();
  cfg.buffer_org = "damq";
  cfg.damq_private_fraction = 0.0;
  cfg.load = 1.0;
  cfg.measure = 20000;
  cfg.watchdog = 4000;
  const SimResult r = run(cfg);
  EXPECT_TRUE(r.deadlock);
}

TEST(Integration, DamqWithReservationDoesNot) {
  SimConfig cfg = quick_config();
  cfg.buffer_org = "damq";
  cfg.damq_private_fraction = 0.75;
  cfg.load = 1.0;
  cfg.watchdog = 4000;
  const SimResult r = run(cfg);
  EXPECT_FALSE(r.deadlock);
  EXPECT_GT(r.accepted, 0.5);
}

// Boot-time validation rejects an arrangement that does not fit the
// routing, topology or traffic with an exception (so a sweep can name the
// series and exit 2) whose message carries `fragment`.
void expect_rejected(const SimConfig& cfg, const std::string& fragment) {
  EXPECT_THROW(
      {
        try {
          Simulator(cfg).run();
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::invalid_argument);
}

TEST(Integration, BaselineValiantRequiresFourTwo) {
  SimConfig cfg = quick_config();
  cfg.routing = "val";
  cfg.vcs = "2/1";
  expect_rejected(cfg, "baseline");
}

TEST(Integration, MismatchedArrangementRejected) {
  SimConfig cfg = quick_config();
  cfg.vcs = "3";  // untyped arrangement on a typed topology
  expect_rejected(cfg, "typed");
}

TEST(Integration, ReactiveNeedsReplyArrangement) {
  SimConfig cfg = quick_config();
  cfg.reactive = true;
  cfg.vcs = "2/1";  // no reply segment
  expect_rejected(cfg, "reactive");
}

// ---------------------------------------------------------- other networks

TEST(Integration, SlimFlyEndToEnd) {
  SimConfig cfg = quick_config();
  cfg.topology = "slimfly";
  cfg.vcs = "2";
  cfg.load = 0.5;
  const SimResult r = run(cfg);
  EXPECT_FALSE(r.deadlock);
  EXPECT_NEAR(r.accepted, 0.5, 0.03);
}

TEST(Integration, SlimFlyValiantOpportunistic) {
  // 3 VCs: Valiant is opportunistic in a diameter-2 network (Table I).
  SimConfig cfg = quick_config();
  cfg.topology = "slimfly";
  cfg.policy = "flexvc";
  cfg.routing = "val";
  cfg.vcs = "3";
  cfg.load = 0.3;
  const SimResult r = run(cfg);
  EXPECT_FALSE(r.deadlock);
  EXPECT_GT(r.accepted, 0.25);
}

// ------------------------------------------------------- reactive traffic

TEST(Integration, ReactiveDeliversBothClasses) {
  SimConfig cfg = quick_config();
  cfg.reactive = true;
  cfg.vcs = "2/1+2/1";
  cfg.load = 0.6;
  const SimResult r = run(cfg);
  EXPECT_FALSE(r.deadlock);
  EXPECT_NEAR(r.accepted, 0.6, 0.04);
  EXPECT_GT(r.request_latency, 0.0);
  EXPECT_GT(r.reply_latency, 0.0);
}

TEST(Integration, ReactiveFlexVcHalfBuffers) {
  // Table IV: FlexVC sustains VAL+reply traffic with 3/2+2/1 = 5/3 VCs —
  // half the baseline's 10/4 — via opportunistic paths.
  SimConfig cfg = quick_config();
  cfg.reactive = true;
  cfg.policy = "flexvc";
  cfg.routing = "val";
  cfg.traffic = "adversarial";
  cfg.vcs = "3/2+2/1";
  cfg.load = 0.3;
  const SimResult r = run(cfg);
  EXPECT_FALSE(r.deadlock);
  EXPECT_GT(r.accepted, 0.2);
}

// ----------------------------------------- deadlock-freedom property sweep

struct MatrixCase {
  const char* policy;
  const char* routing;
  const char* vcs;
  const char* traffic;
  bool reactive;
};

class DeadlockMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(DeadlockMatrix, SaturationRunCompletesWithoutDeadlock) {
  const MatrixCase& c = GetParam();
  SimConfig cfg;
  cfg.warmup = 1500;
  cfg.measure = 3500;
  cfg.watchdog = 4000;
  cfg.policy = c.policy;
  cfg.routing = c.routing;
  cfg.vcs = c.vcs;
  cfg.traffic = c.traffic;
  cfg.reactive = c.reactive;
  cfg.load = 1.0;  // deadlock hunts at saturation
  Simulator sim(cfg);
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock) << cfg.summary();
  EXPECT_GT(r.accepted, 0.05) << cfg.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeadlockMatrix,
    ::testing::Values(
        MatrixCase{"baseline", "min", "2/1", "uniform", false},
        MatrixCase{"baseline", "val", "4/2", "uniform", false},
        MatrixCase{"baseline", "val", "4/2", "adversarial", false},
        MatrixCase{"baseline", "par", "5/2", "adversarial", false},
        MatrixCase{"baseline", "pb", "4/2", "adversarial", false},
        MatrixCase{"baseline", "ugal", "4/2", "adversarial", false},
        MatrixCase{"flexvc", "min", "2/1", "uniform", false},
        MatrixCase{"flexvc", "min", "4/2", "bursty", false},
        MatrixCase{"flexvc", "min", "8/4", "uniform", false},
        MatrixCase{"flexvc", "val", "3/2", "adversarial", false},
        MatrixCase{"flexvc", "val", "4/2", "adversarial", false},
        MatrixCase{"flexvc", "val", "8/4", "adversarial", false},
        MatrixCase{"flexvc", "par", "3/2", "adversarial", false},
        MatrixCase{"flexvc", "pb", "4/2", "adversarial", false},
        MatrixCase{"flexvc", "pb", "3/2", "uniform", false},
        MatrixCase{"baseline", "min", "2/1+2/1", "uniform", true},
        MatrixCase{"baseline", "val", "4/2+4/2", "adversarial", true},
        MatrixCase{"flexvc", "min", "2/1+2/1", "uniform", true},
        MatrixCase{"flexvc", "min", "3/2+2/1", "bursty", true},
        MatrixCase{"flexvc", "val", "4/2+2/1", "adversarial", true},
        MatrixCase{"flexvc", "pb", "4/2+2/1", "adversarial", true},
        MatrixCase{"flexvc", "pb", "4/2+2/1", "uniform", true}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::string name = std::string(info.param.policy) + "_" +
                         info.param.routing + "_" + info.param.vcs + "_" +
                         info.param.traffic +
                         (info.param.reactive ? "_rr" : "");
      for (auto& ch : name)
        if (ch == '/' || ch == '+') ch = '_';
      return name;
    });

}  // namespace
}  // namespace flexnet
