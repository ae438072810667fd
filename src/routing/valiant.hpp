// VAL: Valiant's randomized oblivious routing — minimal to a uniformly
// random intermediate router, then minimal to the destination. Balances
// adversarial traffic at the cost of (up to) doubled path length, halving
// peak throughput (paper SII).
#pragma once

#include "routing/routing.hpp"

namespace flexnet {

class ValiantRouting final : public RoutingAlgorithm {
 public:
  using RoutingAlgorithm::RoutingAlgorithm;

  std::string name() const override { return "val"; }

  void route(const Packet& pkt, RouterId router, Rng& rng,
             std::vector<RouteOption>& out) const override;

  /// Worst-case path on a topology of `shape`: the VC arrangement must
  /// hold it (validate_config).
  static HopSeq reference_path(const TopologyShape& shape);
};

}  // namespace flexnet
