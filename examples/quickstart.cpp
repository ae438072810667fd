// Quickstart: build a small Dragonfly, run uniform traffic under FlexVC,
// and print the headline metrics. This is the 60-second tour of the API:
//
//   SimConfig      — Table V parameters (topology, VCs, buffers, routing)
//   Simulator      — warm-up + measured steady-state window
//   SimResult      — offered/accepted load, latency, hops
//
// Build & run:  ./examples/quickstart [key=value ...]
// e.g.          ./examples/quickstart policy=baseline vcs=2/1 load=0.7
#include <cstdio>

#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace flexnet;

  SimConfig config;                  // Table V defaults
  config.dragonfly = {2, 4, 2};      // p=2 nodes/router, a=4, h=2 (36 routers)
  config.policy = "flexvc";          // the paper's mechanism ("baseline" to compare)
  config.vcs = "4/2";                // 4 local / 2 global VCs per input port
  config.routing = "min";            // minimal l-g-l routing
  config.traffic = "uniform";
  config.load = 0.6;                 // offered phits/node/cycle
  config.apply(Options::parse(argc, argv));  // command-line overrides

  std::printf("flexnet quickstart: %s\n", config.summary().c_str());

  Simulator sim(config);
  const SimResult result = sim.run();

  std::printf("  offered load   : %.3f phits/node/cycle\n", result.offered);
  std::printf("  accepted load  : %.3f phits/node/cycle\n", result.accepted);
  std::printf("  packet latency : %.1f cycles (average)\n", result.avg_latency);
  std::printf("  network hops   : %.2f (average)\n", result.avg_hops);
  std::printf("  packets        : %lld delivered in %lld cycles\n",
              static_cast<long long>(result.consumed_packets),
              static_cast<long long>(result.cycles));
  if (result.deadlock) std::printf("  DEADLOCK detected!\n");
  return result.deadlock ? 1 : 0;
}
