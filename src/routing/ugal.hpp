// UGAL-L: source-adaptive routing with local information (Singh 2005,
// paper SII). At injection, compares queue-length x path-length products of
// the minimal and a random Valiant alternative and commits to the winner.
// Provided as the classic baseline PAR and PB build on.
#pragma once

#include "routing/routing.hpp"

namespace flexnet {

struct UgalConfig {
  int threshold_packets = 3;
  bool min_only = false;
};

class UgalRouting final : public RoutingAlgorithm {
 public:
  UgalRouting(const Topology& topo, const CongestionOracle& oracle,
              int packet_size, const UgalConfig& config)
      : RoutingAlgorithm(topo),
        oracle_(oracle),
        packet_size_(packet_size),
        config_(config) {}

  std::string name() const override { return "ugal"; }

  void route(const Packet& pkt, RouterId router, Rng& rng,
             std::vector<RouteOption>& out) const override;

  /// Worst-case path on a topology of `shape`: the VC arrangement must
  /// hold it (validate_config).
  static HopSeq reference_path(const TopologyShape& shape);

 private:
  const CongestionOracle& oracle_;
  int packet_size_;
  UgalConfig config_;
};

}  // namespace flexnet
