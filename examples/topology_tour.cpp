// Topology tour: the two low-diameter networks in the library and how
// FlexVC's VC templates adapt to them.
//
//  * Dragonfly — typed links (local/global), the paper's evaluation network;
//  * Slim Fly MMS(q) — untyped generic diameter-2 at near-optimal cost.
#include <cstdio>

#include "core/vc_template.hpp"
#include "sim/simulator.hpp"
#include "topology/dragonfly.hpp"
#include "topology/slimfly.hpp"

namespace {

void describe(const flexnet::Topology& topo) {
  std::printf("%-28s %6d routers %6d nodes  degree %-3d diameter %d  %s\n",
              topo.name().c_str(), topo.num_routers(), topo.num_nodes(),
              topo.num_network_ports(0), topo.diameter(),
              topo.typed() ? "typed (l/g)" : "untyped");
}

void run(const char* topology, const char* vcs) {
  flexnet::SimConfig cfg;
  cfg.topology = topology;
  cfg.vcs = vcs;
  cfg.policy = "flexvc";
  cfg.routing = "min";
  cfg.load = 0.5;
  cfg.warmup = 5000;
  cfg.measure = 10000;
  const flexnet::SimResult r = flexnet::Simulator(cfg).run();
  std::printf("  %-12s FlexVC %-4s @0.5 load: accepted=%.3f latency=%.1f\n",
              topology, vcs, r.accepted, r.avg_latency);
}

}  // namespace

int main() {
  using namespace flexnet;

  std::printf("== The networks ==\n");
  describe(Dragonfly({2, 4, 2}));
  describe(SlimFly({2, 5}));

  std::printf("\n== VC templates (the deadlock-avoidance order) ==\n");
  for (const char* arr : {"2/1", "4/2", "8/4"}) {
    const VcTemplate tmpl{VcArrangement::parse(arr)};
    std::printf("  dragonfly %-6s -> %s\n", arr, tmpl.to_string().c_str());
  }
  for (const char* arr : {"2", "4"}) {
    const VcTemplate tmpl{VcArrangement::parse(arr)};
    std::printf("  diameter-2 %-5s -> %s\n", arr, tmpl.to_string().c_str());
  }
  const VcTemplate rr{VcArrangement::parse("3/2+2/1")};
  std::printf("  req+reply 3/2+2/1 -> %s  (replies may borrow the left "
              "segment)\n\n",
              rr.to_string().c_str());

  std::printf("== Minimal routing under FlexVC on each topology ==\n");
  run("dragonfly", "4/2");
  run("slimfly", "4");
  return 0;
}
