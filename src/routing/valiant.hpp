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

 private:
  void route_transit(const Packet& pkt, RouterId router, Rng& rng,
                     std::vector<RouteOption>& out) const override;
};

}  // namespace flexnet
