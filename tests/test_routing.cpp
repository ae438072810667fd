// Routing algorithm unit tests: option validity for MIN/VAL/PAR/UGAL/PB,
// Valiant trajectory bookkeeping, Piggyback saturation sensing, and the
// contract every registered algorithm keeps at the destination router.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/vc_arrangement.hpp"
#include "core/vc_policy.hpp"
#include "routing/adaptive.hpp"
#include "routing/minimal.hpp"
#include "routing/valiant.hpp"
#include "scenario/registry.hpp"
#include "sim/config.hpp"
#include "topology/dragonfly.hpp"
#include "topology/slimfly.hpp"

namespace flexnet {
namespace {

constexpr LinkType kL = LinkType::kLocal;
constexpr LinkType kG = LinkType::kGlobal;

/// Congestion oracle with settable per-port occupancy.
class FakeOracle : public CongestionOracle {
 public:
  int port_occupancy(RouterId r, PortIndex p, bool) const override {
    const auto it = occ_.find({r, p});
    return it == occ_.end() ? 0 : it->second;
  }
  int vc_occupancy(RouterId r, PortIndex p, VcIndex, bool) const override {
    return port_occupancy(r, p, false);
  }
  void set(RouterId r, PortIndex p, int occ) { occ_[{r, p}] = occ; }
  void clear() { occ_.clear(); }

 private:
  std::map<std::pair<RouterId, PortIndex>, int> occ_;
};

Packet packet_at_injection(const Topology& topo, NodeId src, NodeId dst) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.vc_position = kInjectionPosition;
  (void)topo;
  return pkt;
}

/// Walks a packet along `routing`'s first option until ejection, verifying
/// each hop is a real link and the hop-type bookkeeping is consistent.
int walk_to_destination(const Topology& topo, RoutingAlgorithm& routing,
                        Packet pkt, Rng& rng) {
  RouterId at = topo.router_of_node(pkt.src);
  int hops = 0;
  std::vector<RouteOption> opts;
  while (true) {
    opts.clear();
    routing.route(pkt, at, rng, opts);
    EXPECT_FALSE(opts.empty());
    const RouteOption& opt = opts.front();
    if (opt.ejection) {
      EXPECT_EQ(at, topo.router_of_node(pkt.dst));
      return hops;
    }
    EXPECT_LT(opt.out_port, topo.num_network_ports(at));
    EXPECT_EQ(opt.hop_type, topo.port(at, opt.out_port).type);
    // Remaining-type bookkeeping must shrink to zero at the destination.
    at = topo.port(at, opt.out_port).neighbor;
    pkt.valiant = opt.valiant_after;
    pkt.valiant_reached = opt.valiant_reached_after;
    pkt.route_kind = opt.kind_after;
    pkt.vc_position = 0;
    ++pkt.hops;
    ++hops;
    EXPECT_LE(hops, 8) << "routing loop";
    if (hops > 8) return hops;
  }
}

TEST(MinimalRouting, ReachesEveryDestinationWithinDiameter) {
  const Dragonfly topo({2, 4, 2});
  MinimalRouting routing(topo);
  Rng rng(1);
  for (NodeId src = 0; src < topo.num_nodes(); src += 9) {
    for (NodeId dst = 0; dst < topo.num_nodes(); dst += 5) {
      if (topo.router_of_node(src) == topo.router_of_node(dst)) continue;
      const int hops = walk_to_destination(
          topo, routing, packet_at_injection(topo, src, dst), rng);
      EXPECT_LE(hops, topo.diameter());
    }
  }
}

TEST(MinimalRouting, SingleOptionNoEscape) {
  const Dragonfly topo({2, 4, 2});
  MinimalRouting routing(topo);
  Rng rng(1);
  std::vector<RouteOption> opts;
  routing.route(packet_at_injection(topo, 0, 50), 0, rng, opts);
  EXPECT_EQ(opts.size(), 1u);
  EXPECT_EQ(opts[0].kind_after, RouteKind::kMinimal);
}

TEST(ValiantRouting, ReachesDestinationThroughIntermediate) {
  const Dragonfly topo({2, 4, 2});
  ValiantRouting routing(topo);
  Rng rng(2);
  for (NodeId dst = 2; dst < topo.num_nodes(); dst += 7) {
    const int hops = walk_to_destination(
        topo, routing, packet_at_injection(topo, 0, dst), rng);
    EXPECT_LE(hops, 2 * topo.diameter());
  }
}

TEST(ValiantRouting, MarksNonminimalAndProvidesEscape) {
  const Dragonfly topo({2, 4, 2});
  ValiantRouting routing(topo);
  Rng rng(3);
  std::vector<RouteOption> opts;
  routing.route(packet_at_injection(topo, 0, 50), 0, rng, opts);
  ASSERT_GE(opts.size(), 1u);
  EXPECT_EQ(opts[0].kind_after, RouteKind::kNonminimal);
  if (!opts[0].valiant_reached_after) {
    ASSERT_EQ(opts.size(), 2u);
    EXPECT_TRUE(opts[1].is_escape);
    EXPECT_EQ(opts[1].valiant_after, kInvalidRouter);
  }
}

TEST(ValiantRouting, EscapePresentEvenWhenHopReachesIntermediate) {
  // The hop that would arrive at the Valiant router can itself be blocked
  // or inadmissible; the escape must still be offered (the wedge this
  // repository once had without it).
  const Dragonfly topo({2, 4, 2});
  ValiantRouting routing(topo);
  Rng rng(4);
  Packet pkt = packet_at_injection(topo, 0, 50);
  pkt.valiant = 2;  // same group as router 0: next local hop reaches it
  pkt.hops = 1;
  pkt.vc_position = 0;
  std::vector<RouteOption> opts;
  routing.route(pkt, 0, rng, opts);
  ASSERT_EQ(opts.size(), 2u);
  EXPECT_TRUE(opts[0].valiant_reached_after);
  EXPECT_TRUE(opts[1].is_escape);
}

TEST(ValiantRouting, EscapeClearsTrajectory) {
  const Dragonfly topo({2, 4, 2});
  ValiantRouting routing(topo);
  Rng rng(5);
  Packet pkt = packet_at_injection(topo, 0, 50);
  pkt.valiant = 30;
  pkt.route_kind = RouteKind::kNonminimal;
  pkt.hops = 1;
  pkt.vc_position = 0;
  std::vector<RouteOption> opts;
  routing.route(pkt, 0, rng, opts);
  ASSERT_EQ(opts.size(), 2u);
  EXPECT_TRUE(opts[1].is_escape);
  EXPECT_EQ(opts[1].valiant_after, kInvalidRouter);
  // minCred accounts the *decision*: an escaped packet stays nonminimal.
  EXPECT_EQ(opts[1].kind_after, RouteKind::kNonminimal);
}

TEST(ParRouting, StaysMinimalWhenUncongested) {
  const Dragonfly topo({2, 4, 2});
  FakeOracle oracle;
  AdaptiveRouting routing(topo, oracle, 8, AdaptiveRule::kPar,
                          AdaptiveConfig{});
  Rng rng(6);
  std::vector<RouteOption> opts;
  routing.route(packet_at_injection(topo, 0, 50), 0, rng, opts);
  ASSERT_EQ(opts.size(), 1u);
  EXPECT_EQ(opts[0].kind_after, RouteKind::kMinimal);
}

TEST(ParRouting, SwitchesToValiantUnderCongestion) {
  const Dragonfly topo({2, 4, 2});
  FakeOracle oracle;
  // Saturate only the minimal path's first-hop port; Valiant alternatives
  // leaving through other ports then look attractive.
  oracle.set(0, topo.min_next_port(0, topo.router_of_node(50)), 500);
  AdaptiveRouting routing(topo, oracle, 8, AdaptiveRule::kPar,
                          AdaptiveConfig{});
  Rng rng(7);
  // Sample several destinations: the Valiant alternative port is random, so
  // q_min = q_val sometimes; with q_min >> threshold the switch must happen
  // when the sampled alternative is a different (empty) port.
  bool switched = false;
  for (int trial = 0; trial < 32 && !switched; ++trial) {
    std::vector<RouteOption> opts;
    routing.route(packet_at_injection(topo, 0, 50), 0, rng, opts);
    switched = opts.front().kind_after == RouteKind::kNonminimal;
  }
  EXPECT_TRUE(switched);
}

TEST(ParRouting, WindowClosesAfterLeavingSourceGroup) {
  const Dragonfly topo({2, 4, 2});
  FakeOracle oracle;
  for (PortIndex p = 0; p < topo.num_network_ports(8); ++p)
    oracle.set(8, p, 500);
  AdaptiveRouting routing(topo, oracle, 8, AdaptiveRule::kPar,
                          AdaptiveConfig{});
  Rng rng(8);
  Packet pkt = packet_at_injection(topo, 0, 50);  // src router 0 (group 0)
  pkt.hops = 2;
  pkt.vc_position = 1;
  // At router 8 (group 2), outside the source group: no more switching.
  std::vector<RouteOption> opts;
  routing.route(pkt, 8, rng, opts);
  EXPECT_EQ(opts.front().kind_after, RouteKind::kMinimal);
}

TEST(UgalRouting, ComparesWeightedQueues) {
  const Dragonfly topo({2, 4, 2});
  FakeOracle oracle;
  AdaptiveRouting routing(topo, oracle, 8, AdaptiveRule::kUgal,
                          AdaptiveConfig{});
  Rng rng(9);
  std::vector<RouteOption> opts;
  routing.route(packet_at_injection(topo, 0, 50), 0, rng, opts);
  EXPECT_EQ(opts.front().kind_after, RouteKind::kMinimal);  // all empty
}

// --- Piggyback.

class PiggybackTest : public ::testing::Test {
 protected:
  PiggybackTest() : topo_({2, 4, 2}) {}

  AdaptiveRouting make() {
    return AdaptiveRouting(topo_, oracle_, 8, AdaptiveRule::kPiggyback,
                           AdaptiveConfig{});
  }

  Dragonfly topo_;
  FakeOracle oracle_;
};

TEST_F(PiggybackTest, IdleNetworkIsNeverSaturated) {
  auto pb = make();
  pb.update(0);
  for (RouterId r = 0; r < topo_.num_routers(); ++r)
    for (int j = 0; j < topo_.params().h; ++j)
      EXPECT_FALSE(pb.saturated(r, topo_.params().a - 1 + j,
                                MsgClass::kRequest));
}

TEST_F(PiggybackTest, UnbalancedGlobalPortSaturates) {
  auto pb = make();
  const PortIndex g0 = topo_.params().a - 1;
  oracle_.set(0, g0, 200);  // one hot global port, the other idle
  pb.update(0);
  EXPECT_TRUE(pb.saturated(0, g0, MsgClass::kRequest));
  EXPECT_FALSE(pb.saturated(0, g0 + 1, MsgClass::kRequest));
}

TEST_F(PiggybackTest, BalancedLoadIsNotSaturated) {
  auto pb = make();
  const PortIndex g0 = topo_.params().a - 1;
  oracle_.set(0, g0, 200);
  oracle_.set(0, g0 + 1, 200);  // both equally loaded: no outlier
  pb.update(0);
  EXPECT_FALSE(pb.saturated(0, g0, MsgClass::kRequest));
  EXPECT_FALSE(pb.saturated(0, g0 + 1, MsgClass::kRequest));
}

TEST_F(PiggybackTest, SaturationFloorSuppressesNoise) {
  auto pb = make();
  const PortIndex g0 = topo_.params().a - 1;
  oracle_.set(0, g0, 10);  // above 1.5x average but below 2 packets
  pb.update(0);
  EXPECT_FALSE(pb.saturated(0, g0, MsgClass::kRequest));
}

TEST_F(PiggybackTest, MisroutesWhenMinimalGlobalLinkSaturated) {
  auto pb = make();
  // Find the router owning the global link from group 0 toward group 1 and
  // saturate it; an injection at any group-0 router must then pick Valiant.
  PortIndex gport = kInvalidPort;
  const RouterId owner = topo_.global_link_owner(0, 1, gport);
  oracle_.set(owner, gport, 400);
  pb.update(0);
  Rng rng(10);
  Packet pkt;
  pkt.src = 2;  // a node of router 1 (group 0)
  pkt.dst = topo_.first_node_of_router(topo_.router_id(1, 0));  // group 1
  pkt.vc_position = kInjectionPosition;
  std::vector<RouteOption> opts;
  pb.route(pkt, topo_.router_of_node(pkt.src), rng, opts);
  EXPECT_EQ(opts.front().kind_after, RouteKind::kNonminimal);
}

TEST_F(PiggybackTest, RoutesMinimallyWhenClean) {
  auto pb = make();
  pb.update(0);
  Rng rng(11);
  Packet pkt;
  pkt.src = 2;
  pkt.dst = topo_.first_node_of_router(topo_.router_id(1, 0));
  pkt.vc_position = kInjectionPosition;
  std::vector<RouteOption> opts;
  pb.route(pkt, topo_.router_of_node(pkt.src), rng, opts);
  EXPECT_EQ(opts.front().kind_after, RouteKind::kMinimal);
}

// --- UGAL, PAR and PB: one adaptive body under three rules.

/// The draws route() makes at a router inside its rule's window, by hand:
/// continue_option's minimal first hop, pick_valiant_router, then
/// valiant_option's first hop. Returns the Valiant router.
RouterId hand_made_draws(const Topology& topo, RouterId at, RouterId dst,
                         Rng& rng) {
  topo.min_next_port(at, dst, &rng);
  const RouterId vr = pick_valiant_router(topo, rng);
  topo.min_next_port(at, vr == at || vr == dst ? dst : vr, &rng);
  return vr;
}

/// A seed whose Valiant draw at `at` picks an intermediate other than `at`
/// and `dst` that leaves through another port than the minimal one, so
/// occupancy on the minimal port alone decides.
std::uint64_t seed_with_distinct_ports(const Topology& topo, RouterId at,
                                       RouterId dst) {
  for (std::uint64_t seed = 1; seed < 1000; ++seed) {
    Rng probe(seed);
    const RouterId vr = hand_made_draws(topo, at, dst, probe);
    if (vr != at && vr != dst &&
        topo.min_next_port(at, vr) != topo.min_next_port(at, dst))
      return seed;
  }
  ADD_FAILURE() << "no seed draws a distinct Valiant port";
  return 0;
}

TEST(AdaptiveRules, WindowsThresholdsSaturationAndDrawsPerRule) {
  const Dragonfly topo({2, 4, 2});  // four routers per group
  FakeOracle oracle;
  constexpr int kT = 3 * 8;  // default threshold: 3 packets of 8 phits
  // A destination outside group 0 whose minimal path leaves router 0 on a
  // local port, so router 0's ports hold no PB saturation bit that matters.
  RouterId far = kInvalidRouter;
  for (RouterId r = topo.params().a; far == kInvalidRouter; ++r)
    if (topo.port(0, topo.min_next_port(0, r)).type == kL) far = r;

  // Packet states, all sourced at router 0 and bound for `far` unless said.
  struct State {
    const char* what;
    RouterId at;
    RouterId dst;
    int hops;
    bool misrouted;  ///< route_kind already nonminimal
  };
  const RouterId other_group = topo.router_id(
      topo.group_of(far) == 1 ? 2 : 1, 0);
  const State states[] = {
      {"at injection, toward another group", 0, far, 0, false},
      {"at injection, toward the source group", 0, 2, 0, false},
      {"one local hop in, in the source group", 1, far, 1, false},
      {"two hops in, in the source group", 2, far, 2, false},
      {"one hop in, out of the source group", other_group, far, 1, false},
      {"at injection, already misrouted", 0, far, 0, true},
  };
  constexpr int kStates = sizeof(states) / sizeof(states[0]);

  struct Rule {
    AdaptiveRule rule;
    const char* name;
    bool decides[kStates];  ///< per state: inside the rule's window
    /// Largest q_min that still routes minimally against q_val, for
    /// minimal and Valiant path lengths h_min and h_val (exact when
    /// kT % h_min == 0).
    int (*last_minimal_q)(int q_val, int h_min, int h_val);
    bool saturation_override;
  };
  const Rule rules[] = {
      {AdaptiveRule::kUgal, "ugal", {true, true, false, false, false, false},
       [](int q_val, int h_min, int h_val) {
         return (q_val * h_val + kT) / h_min;
       },
       false},
      {AdaptiveRule::kPar, "par", {true, true, true, false, false, false},
       [](int q_val, int, int) { return 2 * q_val + kT; }, false},
      {AdaptiveRule::kPiggyback, "pb",
       {true, false, false, false, false, false},
       [](int q_val, int, int) { return 2 * q_val + kT; }, true},
  };

  // Routes `pkt` at `at` under `rule` with the oracle as it stands.
  const auto route = [&](AdaptiveRule rule, const Packet& pkt, RouterId at,
                         Rng& rng) {
    AdaptiveRouting routing(topo, oracle, 8, rule, AdaptiveConfig{});
    routing.update(0);
    std::vector<RouteOption> opts;
    routing.route(pkt, at, rng, opts);
    return opts.front();
  };
  const auto packet = [&](const State& s) {
    Packet pkt = packet_at_injection(topo, 0, topo.first_node_of_router(s.dst));
    if (s.hops > 0) pkt.vc_position = 0;
    pkt.hops = s.hops;
    if (s.misrouted) pkt.route_kind = RouteKind::kNonminimal;
    return pkt;
  };

  for (const Rule& r : rules) {
    // Windows: with the minimal port congested, a rule that decides takes
    // the Valiant router it drew; outside its window it draws nothing.
    for (int i = 0; i < kStates; ++i) {
      const State& s = states[i];
      const std::string context = std::string(r.name) + ", " + s.what;
      const std::uint64_t seed = seed_with_distinct_ports(topo, s.at, s.dst);
      oracle.clear();
      oracle.set(s.at, topo.min_next_port(s.at, s.dst), 1000);
      Rng rng(seed);
      const RouteOption main = route(r.rule, packet(s), s.at, rng);
      Rng expected(seed);
      const RouterId vr =
          r.decides[i] ? hand_made_draws(topo, s.at, s.dst, expected)
                       : kInvalidRouter;
      if (!r.decides[i]) topo.min_next_port(s.at, s.dst, &expected);
      EXPECT_EQ(main.valiant_after, vr) << context;
      for (int k = 0; k < 2; ++k)
        ASSERT_EQ(rng.next_u64(), expected.next_u64()) << context;
    }

    // Thresholds, at the exact boundary: q_min at the last minimal value
    // stays minimal, one phit more misroutes.
    const std::uint64_t seed = seed_with_distinct_ports(topo, 0, far);
    Rng probe(seed);
    const RouterId vr = hand_made_draws(topo, 0, far, probe);
    const int h_min = topo.min_distance(0, far);
    const int h_val = topo.min_distance(0, vr) + topo.min_distance(vr, far);
    ASSERT_EQ(kT % h_min, 0);
    for (const int q_val : {0, h_min}) {
      const int last = r.last_minimal_q(q_val, h_min, h_val);
      for (const int q_min : {last, last + 1}) {
        oracle.clear();
        oracle.set(0, topo.min_next_port(0, far), q_min);
        oracle.set(0, topo.min_next_port(0, vr), q_val);
        Rng rng(seed);
        const RouteOption main = route(r.rule, packet(states[0]), 0, rng);
        EXPECT_EQ(main.kind_after, q_min > last ? RouteKind::kNonminimal
                                                : RouteKind::kMinimal)
            << r.name << " q_min=" << q_min << " q_val=" << q_val;
      }
    }

    // PB's saturation override: the global link toward the destination's
    // group, owned by another router of the source group, is saturated
    // while the source router's own ports are idle.
    PortIndex gport = kInvalidPort;
    const RouterId owner =
        topo.global_link_owner(0, topo.group_of(far), gport);
    const RouterId src = owner == 0 ? 1 : 0;
    oracle.clear();
    oracle.set(owner, gport, 400);
    Packet pkt = packet(states[0]);
    pkt.src = topo.first_node_of_router(src);
    Rng rng(1);
    EXPECT_EQ(route(r.rule, pkt, src, rng).kind_after,
              r.saturation_override ? RouteKind::kNonminimal
                                    : RouteKind::kMinimal)
        << r.name << " saturation";
  }
}

TEST(RoutingContract, DestinationRouterYieldsOnlyEjectionAndDrawsNothing) {
  // Network::find_action parks a fresh head at its destination router
  // whose tail is still arriving, whatever the algorithm, and re-arms it
  // only when the tail completes: skipping those route() calls is
  // bit-identical only if each would have appended the ejection option
  // alone and left the router's Rng as it was.
  for (const char* topology : {"dragonfly", "slimfly"}) {
    SimConfig cfg;
    cfg.topology = topology;
    const std::unique_ptr<Topology> topo =
        topology_registry().at(cfg.topology).make(cfg);
    const VcArrangement arrangement = VcArrangement::parse(cfg.vcs);
    const NodeId nodes = topo->num_nodes();
    const int routers = topo->num_routers();
    for (const auto& entry : routing_registry().entries()) {
      cfg.routing = entry.name;
      if (entry.validate) {
        try {
          entry.validate(cfg);
        } catch (const std::invalid_argument&) {
          continue;  // e.g. Piggyback off a Dragonfly
        }
      }
      FakeOracle oracle;
      // Congestion that would make the adaptive algorithms misroute
      // anywhere but at the destination.
      for (RouterId r = 0; r < routers; ++r)
        for (PortIndex p = 0; p < topo->num_network_ports(r); p += 2)
          oracle.set(r, p, 1000);
      const std::unique_ptr<RoutingAlgorithm> routing = entry.make(
          RoutingContext{*topo, oracle, cfg, arrangement});
      routing->update(0);
      Rng rng(7);
      int checked = 0;
      for (NodeId dst = 0; dst < nodes; dst += 3) {
        const RouterId at = topo->router_of_node(dst);
        // A node on the same router, a neighbour's, and a far one.
        const NodeId sources[] = {dst ^ 1,
                                  (dst + topo->concentration()) % nodes,
                                  (dst + nodes / 2) % nodes};
        for (const NodeId src : sources) {
          // At injection, mid-path, toward a pending Valiant router, and
          // after reaching it.
          for (int state = 0; state < 4; ++state) {
            Packet pkt = packet_at_injection(*topo, src, dst);
            if (state > 0) {
              pkt.vc_position = 1;
              pkt.hops = state;
            }
            if (state >= 2) {
              pkt.valiant = (at + 1) % routers;
              pkt.valiant_reached = state == 3;
              pkt.route_kind = RouteKind::kNonminimal;
            }
            const std::string context = entry.name + " on " + topology +
                                        " dst=" + std::to_string(dst) +
                                        " src=" + std::to_string(src) +
                                        " state=" + std::to_string(state);
            // route() appends: the sentinel must stay first and alone.
            std::vector<RouteOption> opts(1);
            Rng before = rng;
            routing->route(pkt, at, rng, opts);
            ASSERT_EQ(opts.size(), 2u) << context;
            EXPECT_FALSE(opts[0].ejection) << context;
            EXPECT_TRUE(opts[1].ejection) << context;
            for (int i = 0; i < 2; ++i)
              ASSERT_EQ(rng.next_u64(), before.next_u64()) << context;
            ++checked;
          }
        }
      }
      EXPECT_GT(checked, 0) << entry.name << " on " << topology;
    }
  }
}

TEST(RoutingReferences, ReferencePathsMatchPaperRequirements) {
  // validate_config embeds the full canonical path the registry names.
  const auto path = [](const char* routing, const TopologyShape& shape) {
    return routing_registry().at(routing).make.reference_path(shape)
        .to_string();
  };
  const TopologyShape df = Dragonfly::kShape;
  EXPECT_EQ(path("min", df), "lgl");
  EXPECT_EQ(path("val", df), "lgllgl");
  EXPECT_EQ(path("par", df), "llgllgl");
  // Generic diameter-2 (Tables I/II): MIN 2 hops, VAL 4, PAR 5.
  const TopologyShape sf = SlimFly::kShape;
  EXPECT_EQ(path("min", sf), "ll");
  EXPECT_EQ(path("val", sf), "llll");
  EXPECT_EQ(path("par", sf), "lllll");
}

}  // namespace
}  // namespace flexnet
