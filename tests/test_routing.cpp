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
#include "routing/minimal.hpp"
#include "routing/par.hpp"
#include "routing/piggyback.hpp"
#include "routing/ugal.hpp"
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
  ParRouting routing(topo, oracle, 8, ParConfig{});
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
  ParRouting routing(topo, oracle, 8, ParConfig{});
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
  ParRouting routing(topo, oracle, 8, ParConfig{});
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
  UgalRouting routing(topo, oracle, 8, UgalConfig{});
  Rng rng(9);
  std::vector<RouteOption> opts;
  routing.route(packet_at_injection(topo, 0, 50), 0, rng, opts);
  EXPECT_EQ(opts.front().kind_after, RouteKind::kMinimal);  // all empty
}

// --- Piggyback.

class PiggybackTest : public ::testing::Test {
 protected:
  PiggybackTest() : topo_({2, 4, 2}) {}

  PiggybackRouting make(bool per_vc, bool min_only = false) {
    PiggybackConfig cfg;
    cfg.per_vc = per_vc;
    cfg.min_only = min_only;
    return PiggybackRouting(topo_, oracle_, 8, cfg, {0, kInvalidVc});
  }

  Dragonfly topo_;
  FakeOracle oracle_;
};

TEST_F(PiggybackTest, IdleNetworkIsNeverSaturated) {
  auto pb = make(false);
  pb.update(0);
  for (RouterId r = 0; r < topo_.num_routers(); ++r)
    for (int j = 0; j < topo_.params().h; ++j)
      EXPECT_FALSE(pb.saturated(r, topo_.params().a - 1 + j,
                                MsgClass::kRequest));
}

TEST_F(PiggybackTest, UnbalancedGlobalPortSaturates) {
  auto pb = make(false);
  const PortIndex g0 = topo_.params().a - 1;
  oracle_.set(0, g0, 200);  // one hot global port, the other idle
  pb.update(0);
  EXPECT_TRUE(pb.saturated(0, g0, MsgClass::kRequest));
  EXPECT_FALSE(pb.saturated(0, g0 + 1, MsgClass::kRequest));
}

TEST_F(PiggybackTest, BalancedLoadIsNotSaturated) {
  auto pb = make(false);
  const PortIndex g0 = topo_.params().a - 1;
  oracle_.set(0, g0, 200);
  oracle_.set(0, g0 + 1, 200);  // both equally loaded: no outlier
  pb.update(0);
  EXPECT_FALSE(pb.saturated(0, g0, MsgClass::kRequest));
  EXPECT_FALSE(pb.saturated(0, g0 + 1, MsgClass::kRequest));
}

TEST_F(PiggybackTest, SaturationFloorSuppressesNoise) {
  auto pb = make(false);
  const PortIndex g0 = topo_.params().a - 1;
  oracle_.set(0, g0, 10);  // above 1.5x average but below 2 packets
  pb.update(0);
  EXPECT_FALSE(pb.saturated(0, g0, MsgClass::kRequest));
}

TEST_F(PiggybackTest, MisroutesWhenMinimalGlobalLinkSaturated) {
  auto pb = make(false);
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
  auto pb = make(false);
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

TEST_F(PiggybackTest, NamesEncodeVariant) {
  EXPECT_EQ(make(false).name(), "pb-per-port");
  EXPECT_EQ(make(true).name(), "pb-per-vc");
  EXPECT_EQ(make(false, true).name(), "pb-per-port-min");
  EXPECT_EQ(make(true, true).name(), "pb-per-vc-min");
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
  const TopologyShape df = Dragonfly::kShape;
  EXPECT_EQ(MinimalRouting::reference_path(df).to_string(), "lgl");
  EXPECT_EQ(ValiantRouting::reference_path(df).to_string(), "lgllgl");
  EXPECT_EQ(ParRouting::reference_path(df).to_string(), "llgllgl");
  // Generic diameter-2 (Tables I/II): MIN 2 hops, VAL 4, PAR 5.
  const TopologyShape sf = SlimFly::kShape;
  EXPECT_EQ(MinimalRouting::reference_path(sf).to_string(), "ll");
  EXPECT_EQ(ValiantRouting::reference_path(sf).to_string(), "llll");
  EXPECT_EQ(ParRouting::reference_path(sf).to_string(), "lllll");
}

}  // namespace
}  // namespace flexnet
