// PB: Piggyback source-adaptive routing (Jiang et al., ISCA 2009; paper SII
// and SV-C). Dragonfly-specific.
//
// Each router marks each of its global ports 'saturated' when the port's
// downstream occupancy exceeds 1.5x the average over the router's global
// ports (plus an absolute floor so an idle network is never saturated), and
// shares the bits with the routers of its group. At injection a packet
// routes minimally unless the global link of its minimal path is saturated
// or a local UGAL-style credit comparison favors the Valiant alternative.
//
// Sensing variants (paper SIV-A, SIII-D):
//  * per-port : occupancy summed over all VCs of the global port;
//  * per-VC   : occupancy of the first VC a minimally routed packet of the
//               class would use (implicitly identifies the traffic pattern
//               under fixed-VC management; with request-reply traffic one
//               bit per class is distributed, doubling the overhead);
//  * minCred  : either of the above restricted to minimally-routed credits
//               (FlexVC-minCred), restoring pattern identification when
//               FlexVC merges flows in shared buffers.
#pragma once

#include "routing/routing.hpp"
#include "topology/dragonfly.hpp"

namespace flexnet {

struct PiggybackConfig {
  bool per_vc = false;        ///< per-VC vs per-port sensing
  bool min_only = false;      ///< FlexVC-minCred counters
  int threshold_packets = 3;  ///< T (Table V), in packets
  double saturation_factor = 1.5;
  int saturation_floor_packets = 2;  ///< absolute floor for 'saturated'
};

class PiggybackRouting final : public RoutingAlgorithm {
 public:
  /// `first_vc_of_class[cls]` is the physical VC index on a global input
  /// port that a minimally routed packet of that class uses first — the VC
  /// the per-VC variant senses.
  PiggybackRouting(const Dragonfly& topo, const CongestionOracle& oracle,
                   int packet_size, const PiggybackConfig& config,
                   std::array<VcIndex, kNumMsgClasses> first_vc_of_class);

  std::string name() const override;

  void route(const Packet& pkt, RouterId router, Rng& rng,
             std::vector<RouteOption>& out) const override;

  /// Recomputes every router's saturation bits from the oracle. Called once
  /// per cycle by the simulator; the intra-group distribution of the bits is
  /// idealized as immediate (the paper piggybacks them on regular traffic).
  void update(Cycle now) override;

  /// Worst-case path on a topology of `shape`: the VC arrangement must
  /// hold it (validate_config).
  static HopSeq reference_path(const TopologyShape& shape);

  /// Exposed for tests: saturation bit of a router's global port.
  bool saturated(RouterId router, PortIndex global_port, MsgClass cls) const;

 private:
  int sensed_occupancy(RouterId router, PortIndex port, MsgClass cls) const;

  const Dragonfly& df_;
  const CongestionOracle& oracle_;
  int packet_size_;
  PiggybackConfig config_;
  std::array<VcIndex, kNumMsgClasses> first_vc_of_class_;
  /// sat_[cls][router * h + global_port_offset]
  std::array<std::vector<bool>, kNumMsgClasses> sat_;
};

}  // namespace flexnet
