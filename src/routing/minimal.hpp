// MIN: oblivious minimal routing (l-g-l in a Dragonfly). Optimal for
// uniform traffic; collapses under adversarial patterns (paper SII).
#pragma once

#include "routing/routing.hpp"

namespace flexnet {

class MinimalRouting final : public RoutingAlgorithm {
 public:
  using RoutingAlgorithm::RoutingAlgorithm;

  std::string name() const override { return "min"; }

  void route(const Packet& pkt, RouterId router, Rng& rng,
             std::vector<RouteOption>& out) const override;

  /// Worst-case path on a topology of `shape`: the VC arrangement must
  /// hold it (validate_config).
  static HopSeq reference_path(const TopologyShape& shape);

  /// Minimal options depend only on (router, destination) whenever the
  /// topology's minimal first hop is unique; on topologies with minimal
  /// alternatives route() draws the tie-break and must keep re-running.
  bool draw_free() const override { return topo_.min_port_unique(); }
};

}  // namespace flexnet
