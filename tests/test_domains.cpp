// Deterministic intra-simulation parallel domains.
//
// `sim_domains` partitions the routers of one simulation into D contiguous
// domains (`begin[d] = R * d / D`) whose per-cycle allocation and link
// delivery run on worker threads between two barriers; cross-domain
// effects are staged per (source, target) lane and merged in a fixed
// (domain, discovery) order. The contract is absolute: the domain count
// must not perturb a single byte of any result — it is a wall-clock
// knob, never a modeling knob.
//
// This suite pins that contract directly on SimResult bits (the golden
// CI gate pins it again on whole-report bytes at sim_domains=4):
//  * every metric of a run at D in {2, 3, 4} equals the serial run
//    bit for bit, across policies, buffer organizations, and
//    flow-control schemes, loaded enough that cross-domain traffic and
//    blocked-head wake edges are constantly exercised;
//  * domain counts that do not divide the router count still work
//    (the partition floor just makes domains uneven);
//  * degenerate counts (more domains than routers, D = 1) collapse to
//    the serial path.
#include <gtest/gtest.h>

#include <string>

#include "sim/config.hpp"
#include "sim/simulator.hpp"

namespace flexnet {
namespace {

bool result_bits_equal(const SimResult& a, const SimResult& b) {
  return a.accepted == b.accepted && a.avg_latency == b.avg_latency &&
         a.avg_hops == b.avg_hops && a.latency_p50 == b.latency_p50 &&
         a.latency_p99 == b.latency_p99 && a.latency_max == b.latency_max &&
         a.consumed_packets == b.consumed_packets &&
         a.deadlock == b.deadlock && a.cycles == b.cycles;
}

SimResult run_with_domains(SimConfig cfg, int domains) {
  cfg.sim_domains = domains;
  return Simulator(cfg).run();
}

TEST(SimDomains, DomainCountNeverPerturbsResults) {
  struct Point {
    const char* policy;
    const char* vcs;
    const char* buffer_org;
    const char* flow_control;
    double load;
  };
  const Point points[] = {
      {"baseline", "2/1", "static", "packet", 0.30},
      {"flexvc", "4/2", "static", "packet", 0.60},
      {"flexvc", "4/2", "damq", "packet", 0.90},
      {"flexvc", "4/2", "static", "wormhole", 0.50},
      {"flexvc", "4/2", "damq", "vct", 0.90},
  };
  for (const Point& p : points) {
    SimConfig cfg;
    cfg.policy = p.policy;
    cfg.vcs = p.vcs;
    cfg.buffer_org = p.buffer_org;
    cfg.flow_control = p.flow_control;
    cfg.load = p.load;
    cfg.warmup = 300;
    cfg.measure = 600;
    const std::string context = std::string(p.policy) + "/" + p.vcs + "/" +
                                p.buffer_org + "/" + p.flow_control;
    const SimResult serial = run_with_domains(cfg, 1);
    EXPECT_GT(serial.consumed_packets, 0) << context;
    for (const int domains : {2, 3, 4}) {
      const SimResult parallel = run_with_domains(cfg, domains);
      EXPECT_TRUE(result_bits_equal(serial, parallel))
          << context << " diverged at sim_domains=" << domains
          << " (consumed " << parallel.consumed_packets << " vs "
          << serial.consumed_packets << ")";
    }
  }
}

TEST(SimDomains, FlitStreamsUnderAdaptiveRoutingAreDomainInvariant) {
  // VCT flit streams behind on/off backpressure, adversarial traffic, PAR
  // routing: stalled streams retry their serializer every cycle, blocked
  // heads cannot park (PAR draws from the router RNG), and body-flit cut
  // through pushes credits across domain boundaries — the per-cycle paths
  // most likely to drift when links are split across domains.
  SimConfig cfg;
  cfg.policy = "flexvc";
  cfg.vcs = "4/2";
  cfg.flow_control = "vct";
  cfg.buffer_mgmt = "on_off";
  cfg.traffic = "adversarial";
  cfg.routing = "par";
  cfg.load = 0.9;
  cfg.warmup = 300;
  cfg.measure = 600;
  const SimResult serial = run_with_domains(cfg, 1);
  EXPECT_GT(serial.consumed_packets, 0);
  for (const int domains : {2, 4}) {
    const SimResult parallel = run_with_domains(cfg, domains);
    EXPECT_TRUE(result_bits_equal(serial, parallel))
        << "vct/on_off/adversarial/par diverged at sim_domains=" << domains
        << " (consumed " << parallel.consumed_packets << " vs "
        << serial.consumed_packets << ")";
  }
}

TEST(SimDomains, DegenerateDomainCountsCollapseToSerial) {
  SimConfig cfg;
  cfg.policy = "flexvc";
  cfg.vcs = "4/2";
  cfg.load = 0.50;
  cfg.warmup = 200;
  cfg.measure = 400;
  const SimResult serial = run_with_domains(cfg, 1);
  // 36 routers in the default Dragonfly: 36 is one domain per router,
  // 1000 clamps to the router count.
  for (const int domains : {36, 1000}) {
    const SimResult got = run_with_domains(cfg, domains);
    EXPECT_TRUE(result_bits_equal(serial, got))
        << "sim_domains=" << domains << " diverged from serial";
  }
}

}  // namespace
}  // namespace flexnet
