// Source-adaptive routing: UGAL-L, PAR and Piggyback (paper SII). Inside a
// decision window the packet weighs the minimal option against a Valiant
// option through a uniform-random router by the sender-side credit
// occupancy (q) of the two first hops; outside it, the packet follows its
// trajectory. The three algorithms differ only in their rule: the window
// and the misroute test (T = threshold_packets x packet_size):
//
//  * UGAL-L (Singh 2005): at injection; misroutes when
//    q_min*h_min > q_val*h_val + T, h being the option's path length.
//  * PAR, progressive adaptive (Jiang et al., ISCA 2009): while the packet
//    is still minimal, in its source group and at most one hop in, so it
//    re-decides after a local hop; misroutes when q_min > 2*q_val + T.
//    Needs one extra local VC over VAL (5/2 reference, paper SII).
//  * PB, Piggyback (Jiang et al., ISCA 2009; paper SII and SV-C), Dragonfly
//    only: at injection toward another group; misroutes on PAR's test or
//    when the global link of the minimal path is saturated.
//
// PB's saturation bits: each router marks each of its global ports
// 'saturated' when the port's downstream occupancy exceeds 1.5x the average
// over the router's global ports (plus an absolute floor of 2 packets, so
// an idle network is never saturated), and shares the bits with the
// routers of its group. Sensing variants (paper SIV-A, SIII-D):
//  * per-port : occupancy summed over all VCs of the global port;
//  * per-VC   : occupancy of the first VC a minimally routed packet of the
//               class would use (implicitly identifies the traffic pattern
//               under fixed-VC management; with request-reply traffic one
//               bit per class is distributed, doubling the overhead);
//  * minCred  : either of the above restricted to minimally-routed credits
//               (FlexVC-minCred), restoring pattern identification when
//               FlexVC merges flows in shared buffers. minCred also
//               restricts every rule's q_min and q_val.
#pragma once

#include <array>
#include <vector>

#include "routing/routing.hpp"

namespace flexnet {

class Dragonfly;

enum class AdaptiveRule { kUgal, kPar, kPiggyback };

struct AdaptiveConfig {
  int threshold_packets = 3;  ///< T of Table V, in packets
  bool min_only = false;      ///< FlexVC-minCred: compare MIN credits only
  bool per_vc = false;        ///< PB: per-VC vs per-port sensing
  /// PB per-VC sensing: the physical VC on a global input port that a
  /// minimally routed packet of each class uses first.
  std::array<VcIndex, kNumMsgClasses> sensed_vc{0, kInvalidVc};
};

class AdaptiveRouting final : public RoutingAlgorithm {
 public:
  /// PB needs a Dragonfly `topo`.
  AdaptiveRouting(const Topology& topo, const CongestionOracle& oracle,
                  int packet_size, AdaptiveRule rule,
                  const AdaptiveConfig& config);

  /// PB: recomputes every router's saturation bits from the oracle. Called
  /// once per cycle by the simulator; the intra-group distribution of the
  /// bits is idealized as immediate (the paper piggybacks them on regular
  /// traffic).
  void update(Cycle now) override;

  /// Exposed for tests: PB's saturation bit of a router's global port.
  bool saturated(RouterId router, PortIndex global_port, MsgClass cls) const;

 private:
  void route_transit(const Packet& pkt, RouterId router, Rng& rng,
                     std::vector<RouteOption>& out) const override;
  bool in_window(const Packet& pkt, RouterId router) const;
  /// PB: the global link of the minimal path from `router` is saturated.
  bool min_link_saturated(const Packet& pkt, RouterId router) const;
  int sensed_occupancy(RouterId router, PortIndex port, MsgClass cls) const;

  const Dragonfly* df_ = nullptr;  ///< PB only
  const CongestionOracle& oracle_;
  int packet_size_;
  AdaptiveRule rule_;
  AdaptiveConfig config_;
  /// PB: sat_[cls][router * h + global_port_offset]
  std::array<std::vector<bool>, kNumMsgClasses> sat_;
};

}  // namespace flexnet
