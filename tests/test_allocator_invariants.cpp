// Allocator invariants under re-request pruning.
//
// The batched allocator prunes repeat work aggressively: blocked committed
// heads park on the wake edges of their blocking resource (credit return,
// slot free, downstream send), blocked *uncommitted* heads park too when
// routing is draw-free, within-pass losers are masked out of later
// iterations, and sole-VC safe losers of a matched output skip the rest of
// the pass. Every one of those shortcuts is only legal if it never changes
// which grants happen — this suite pins the observable contracts:
//
//  * Accounting: every output arbitration of n contenders reports n
//    requests, one grant, and n-1 conflicts, so the telemetry identity
//    requests == grants + conflicts holds exactly no matter how much
//    repeat work the pruning removed.
//  * Liveness of the wake edges: a head that went to sleep on a full
//    downstream buffer (credit ledger) or a full DAMQ slot pool must be
//    re-armed by the credit-return / slot-free edge — a missed edge
//    strands the packet forever, so full drain of an oversubscribed burst
//    is the test.
//  * No starvation: with sustained random traffic, stopping injection must
//    drain the network completely; the packet that lost every arbitration
//    still gets its grant eventually.
//  * Near-saturation randomized grids (both buffer organizations, the
//    whole-packet flow-control schemes, several seeds) drain after
//    injection stops. Two rows, in the grid and in the accounting
//    identity, aim at the narrowest wake edges: adversarial traffic over
//    VCT flits behind on/off backpressure (with PAR, the saturated
//    Dragonfly benchmark's mode; the grid routes it minimally, see there),
//    where a committed head sleeps until a fire makes room for its size
//    and an ejection head until the flit completing it lands; and
//    reactive traffic through one-packet injection VCs, where a node
//    parks on its full injection buffer while its replies materialize
//    late, and returns only when a grant pops it. Wormhole is exercised with one-shot bursts instead: under *sustained*
//    saturation it deadlocks in the seed engine already
//    (a packet strung across several routers extends the dependency chain
//    beyond what the safe-path argument covers), and this suite pins
//    allocator behavior, not that known scheme limit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/config.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "traffic/traffic.hpp"

namespace flexnet {
namespace {

SimConfig loaded_config(const char* buffer_org, const char* flow_control,
                        double load) {
  SimConfig cfg;
  cfg.policy = "flexvc";
  cfg.vcs = "4/2";
  cfg.routing = "min";
  cfg.buffer_org = buffer_org;
  cfg.flow_control = flow_control;
  cfg.load = load;
  cfg.warmup = 300;
  cfg.measure = 600;
  return cfg;
}

/// Adversarial traffic over VCT flit streams behind on/off backpressure;
/// with PAR routing, the saturated Dragonfly benchmark's mode at smoke
/// scale.
SimConfig adversarial_vct_on_off(const char* routing, double load) {
  SimConfig cfg = loaded_config("static", "vct", load);
  cfg.routing = routing;
  cfg.traffic = "adversarial";
  cfg.buffer_mgmt = "on_off";
  return cfg;
}

/// Request-reply traffic whose injection VCs hold one packet each, so
/// nodes fill them and park while replies still materialize.
SimConfig reactive_one_packet_injection(double load) {
  SimConfig cfg = loaded_config("static", "packet", load);
  cfg.vcs = "4/2+4/2";
  cfg.reactive = true;
  cfg.injection_buffer_per_vc = cfg.packet_size;
  return cfg;
}

/// Steps `net` until it is empty or `limit` cycles pass, starting at `*now`.
/// Empty means no packet in flight and every packet accounted for: the
/// `injected` ones plus every reply a consumed request spawned (counted as
/// generated; the replies wait in their nodes' source queues until they
/// materialize and inject).
void drain(Network& net, Cycle* now, Cycle limit, std::int64_t injected,
           const std::string& context) {
  const Metrics& m = net.metrics();
  const Cycle deadline = *now + limit;
  for (; *now < deadline &&
         (net.packets_in_network() > 0 ||
          m.consumed_packets() < injected + m.generated_packets());
       ++*now) {
    net.step(*now);
  }
  ASSERT_EQ(net.packets_in_network(), 0)
      << context << ": network failed to drain (a blocked head was never "
      << "re-armed by its wake edge)";
  ASSERT_EQ(m.consumed_packets(), injected + m.generated_packets())
      << context << ": a reply never left its node (a parked node was "
      << "never returned to the injection pass)";
}

// ---------------------------------------------------------------------------
// Accounting identity.

TEST(AllocatorInvariants, RequestsEqualGrantsPlusConflictsUnderPruning) {
  // Across pruning regimes: jsq keeps the draw-free fast path on (blocked
  // fresh heads sleep), random VC selection turns it off (route()-adjacent
  // RNG must keep being exercised), and damq/vct move the wake edges to
  // slot-free and per-flit boundaries. The identity must hold exactly in
  // every regime because each output arbitration posts its contender count
  // and its losers atomically, whether or not the contenders were pruned
  // down from a larger repeat-work set.
  struct Regime {
    const char* selection;
    const char* buffer_org;
    const char* flow_control;
  };
  const Regime regimes[] = {
      {"jsq", "static", "packet"},
      {"random", "static", "packet"},
      {"jsq", "damq", "packet"},
      {"jsq", "damq", "vct"},
      {"jsq", "static", "wormhole"},
  };
  std::vector<std::pair<std::string, SimConfig>> runs;
  for (const Regime& regime : regimes) {
    SimConfig cfg = loaded_config(regime.buffer_org, regime.flow_control,
                                  /*load=*/0.8);
    cfg.vc_selection = regime.selection;
    runs.emplace_back(std::string(regime.selection) + "/" +
                          regime.buffer_org + "/" + regime.flow_control,
                      cfg);
  }
  // Near saturation: PAR heads re-route every cycle at injection, and
  // nodes generate into (and park on) one-packet injection VCs.
  runs.emplace_back("adversarial par vct on_off",
                    adversarial_vct_on_off("par", /*load=*/0.9));
  runs.emplace_back("reactive one-packet injection",
                    reactive_one_packet_injection(/*load=*/0.9));
  for (const auto& [context, cfg] : runs) {
    Simulator sim(cfg);
    sim.set_telemetry(true);
    const SimResult result = sim.run();
    EXPECT_FALSE(result.deadlock) << context;
    ASSERT_NE(sim.network(), nullptr) << context;
    const TelemetryCounters& telem = sim.network()->telemetry();
    EXPECT_GT(telem.total_requests(), 0) << context;
    EXPECT_EQ(telem.total_requests(),
              telem.total_grants() + telem.total_conflicts())
        << context;
  }
}

// ---------------------------------------------------------------------------
// Wake-edge liveness.

TEST(AllocatorInvariants, CreditReturnEdgeReArmsBlockedHeads) {
  // Hotspot burst: every node sends to one victim node, oversubscribing
  // the victim's routers and exhausting downstream credits, so most heads
  // commit and then sleep on the credit ledger. Progress from that point
  // on is driven purely by on_credit re-arms; a missed credit-return edge
  // leaves the network permanently occupied. Wormhole rides along here:
  // all-to-one dependencies form a tree (no cycle), so the burst must
  // drain under per-flit crediting too.
  for (const char* fc : {"packet", "wormhole"}) {
    SimConfig cfg = loaded_config("static", fc, /*load=*/0.0);
    Network net(cfg);
    const NodeId nodes = net.topology().num_nodes();
    const NodeId victim = nodes / 3;
    int injected = 0;
    for (NodeId n = 0; n < nodes; ++n) {
      if (n == victim) continue;
      Packet pkt;
      pkt.src = n;
      pkt.dst = victim;
      pkt.size = cfg.packet_size;
      pkt.cls = MsgClass::kRequest;
      pkt.created = 0;
      if (net.try_inject(n, pkt, 0)) ++injected;
    }
    ASSERT_GT(injected, static_cast<int>(nodes) / 2) << fc;
    Cycle now = 0;
    drain(net, &now, /*limit=*/50000, injected,
          std::string("hotspot burst, static/") + fc);
    EXPECT_EQ(net.metrics().consumed_packets(), injected) << fc;
  }
}

TEST(AllocatorInvariants, SlotFreeEdgeReArmsBlockedHeadsUnderDamq) {
  // Same hotspot burst against DAMQ buffers, where admission additionally
  // gates on a shared slot pool: heads sleep until a slot frees. Run it
  // under vct as well — per-flit slot release multiplies the edges.
  for (const char* fc : {"packet", "vct"}) {
    SimConfig cfg = loaded_config("damq", fc, /*load=*/0.0);
    Network net(cfg);
    const NodeId nodes = net.topology().num_nodes();
    const NodeId victim = 2 * nodes / 3;
    int injected = 0;
    for (NodeId n = 0; n < nodes; ++n) {
      if (n == victim) continue;
      Packet pkt;
      pkt.src = n;
      pkt.dst = victim;
      pkt.size = cfg.packet_size;
      pkt.cls = MsgClass::kRequest;
      pkt.created = 0;
      if (net.try_inject(n, pkt, 0)) ++injected;
    }
    ASSERT_GT(injected, static_cast<int>(nodes) / 2) << fc;
    Cycle now = 0;
    drain(net, &now, /*limit=*/50000, injected,
          std::string("hotspot burst, damq/") + fc);
    EXPECT_EQ(net.metrics().consumed_packets(), injected) << fc;
  }
}

// ---------------------------------------------------------------------------
// Starvation freedom.

TEST(AllocatorInvariants, SustainedTrafficNeverStarvesAPacket) {
  // Random all-to-all traffic at high offered load for a window, then
  // injection stops. Every packet that entered the network must come out:
  // consumed == injected after the drain, which fails if the arbiter or
  // the pruning masks can starve a contender indefinitely.
  SimConfig cfg = loaded_config("static", "packet", /*load=*/0.0);
  Network net(cfg);
  const NodeId nodes = net.topology().num_nodes();
  Rng rng(0xfeedULL);
  int injected = 0;
  Cycle now = 0;
  for (; now < 4000; ++now) {
    for (NodeId n = 0; n < nodes; ++n) {
      if (rng.next_below(10) >= 7) continue;  // ~0.7 packets/node/cycle
      Packet pkt;
      pkt.src = n;
      pkt.dst = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(nodes)));
      pkt.size = cfg.packet_size;
      pkt.cls = MsgClass::kRequest;
      pkt.created = now;
      if (net.try_inject(n, pkt, now)) ++injected;
    }
    net.step(now);
  }
  ASSERT_GT(injected, 0);
  drain(net, &now, /*limit=*/50000, injected, "sustained random traffic");
  EXPECT_EQ(net.metrics().consumed_packets(), injected);
}

// ---------------------------------------------------------------------------
// Near-saturation randomized grids.

TEST(AllocatorInvariants, NearSaturationGridsDrainAfterInjectionStops) {
  struct Combo {
    std::string label;
    SimConfig cfg;
  };
  // Whole-packet schemes only: sustained saturation deadlocks wormhole in
  // the seed engine (see the file comment); its wake edges are covered by
  // the one-shot burst tests above.
  std::vector<Combo> combos;
  for (const char* buffer_org : {"static", "damq"})
    for (const char* flow_control : {"packet", "vct"})
      combos.push_back({std::string(buffer_org) + "/" + flow_control,
                        loaded_config(buffer_org, flow_control, 0.0)});
  // Injected requests draw their destinations from the config's pattern
  // here; replies go through the nodes. The adversarial row routes
  // minimally: under PAR a packet that re-enters an input VC it left
  // earlier finds its old commitment there (commitments are keyed on the
  // packet id alone) and can bounce between two routers forever, which
  // seed 23 hits. That livelock is a routing defect of its own, with
  // grants still flowing, not a missed wake edge; PAR's mode is covered
  // by the accounting identity above.
  combos.push_back(
      {"adversarial min vct on_off", adversarial_vct_on_off("min", 0.0)});
  combos.push_back(
      {"reactive one-packet injection", reactive_one_packet_injection(0.0)});
  for (const Combo& combo : combos) {
    for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
      const SimConfig& cfg = combo.cfg;
      Network net(cfg);
      const NodeId nodes = net.topology().num_nodes();
      const AdversarialPattern adversarial(net.topology());
      Rng rng(seed);
      const std::string context =
          combo.label + " seed=" + std::to_string(seed);
      int injected = 0;
      Cycle now = 0;
      for (; now < 2000; ++now) {
        for (NodeId n = 0; n < nodes; ++n) {
          if (rng.next_below(20) >= 19) continue;  // ~0.95 offered load
          Packet pkt;
          pkt.src = n;
          pkt.dst = cfg.traffic == "adversarial"
                        ? adversarial.destination(n, rng)
                        : static_cast<NodeId>(rng.next_below(
                              static_cast<std::uint64_t>(nodes)));
          pkt.size = cfg.packet_size;
          pkt.cls = MsgClass::kRequest;
          pkt.created = now;
          if (net.try_inject(n, pkt, now)) ++injected;
        }
        net.step(now);
      }
      ASSERT_GT(injected, 0) << context;
      drain(net, &now, /*limit=*/100000, injected, context);
      EXPECT_EQ(net.metrics().consumed_packets(),
                injected + net.metrics().generated_packets())
          << context;
    }
  }
}

TEST(AllocatorInvariantsDeathTest, HandDrivenNetworkStaysInsideItsRecords) {
  // validate_config bounds what a configured run can reach; a network
  // driven by hand is checked where it could cross the same bounds: a
  // packet's phits ride in 16 bits, an event's cycle in 32.
  SimConfig cfg;
  Network net(cfg);
  Packet big;
  big.src = 0;
  big.dst = 1;
  big.size = kMaxPacketPhits + 1;
  EXPECT_DEATH(net.try_inject(0, big, 0), "1 to 32767 phits");
  const Cycle last = kMaxStamp - stamp_horizon(cfg);
  net.step(last);
  EXPECT_DEATH(net.step(last + 1), "32-bit event stamp");
}

}  // namespace
}  // namespace flexnet
