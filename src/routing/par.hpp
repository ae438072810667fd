// PAR: Progressive Adaptive Routing (Jiang et al., ISCA 2009) — in-transit
// adaptive. The packet starts minimally; at the source router and after each
// local hop still inside the source group the MIN-vs-VAL decision is
// re-evaluated by comparing credit occupancy of the candidate first hops;
// once it leaves the source group (or commits to Valiant) the decision is
// final. Needs one extra local VC over VAL (5/2 reference, paper SII).
#pragma once

#include "routing/routing.hpp"

namespace flexnet {

struct ParConfig {
  int threshold_packets = 3;  ///< T of Table V, in packets
  bool min_only = false;      ///< FlexVC-minCred: compare MIN credits only
};

class ParRouting final : public RoutingAlgorithm {
 public:
  ParRouting(const Topology& topo, const CongestionOracle& oracle,
             int packet_size, const ParConfig& config)
      : RoutingAlgorithm(topo),
        oracle_(oracle),
        packet_size_(packet_size),
        config_(config) {}

  std::string name() const override { return "par"; }

  void route(const Packet& pkt, RouterId router, Rng& rng,
             std::vector<RouteOption>& out) const override;

  /// Worst-case path on a topology of `shape`: the VC arrangement must
  /// hold it (validate_config).
  static HopSeq reference_path(const TopologyShape& shape);

 private:
  const CongestionOracle& oracle_;
  int packet_size_;
  ParConfig config_;
};

}  // namespace flexnet
