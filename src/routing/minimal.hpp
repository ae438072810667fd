// MIN: oblivious minimal routing (l-g-l in a Dragonfly). Optimal for
// uniform traffic; collapses under adversarial patterns (paper SII).
#pragma once

#include "routing/routing.hpp"

namespace flexnet {

class MinimalRouting final : public RoutingAlgorithm {
 public:
  using RoutingAlgorithm::RoutingAlgorithm;

  /// Minimal options depend only on (router, destination) whenever the
  /// topology's minimal first hop is unique; on topologies with minimal
  /// alternatives route() draws the tie-break and must keep re-running.
  bool draw_free() const override { return topo_.min_port_unique(); }

 private:
  void route_transit(const Packet& pkt, RouterId router, Rng& rng,
                     std::vector<RouteOption>& out) const override;
};

}  // namespace flexnet
