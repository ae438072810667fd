// Routing algorithm interface.
//
// A routing algorithm turns a packet's state into an ordered list of
// RouteOptions for its next hop. The router tries the options in order:
//  * If an option's VC candidates include a *safe* VC (the intended path
//    embeds above it), the packet may wait on that option indefinitely —
//    deadlock freedom follows from the template order.
//  * If the option is only opportunistically admissible, it is taken only
//    when a candidate VC has credits for the whole packet; otherwise the
//    router falls through to the next option — ultimately the minimal
//    escape route (paper SIII-A: "packets revert to the corresponding safe
//    path as an escape path").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "buffers/packet.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/hop_seq.hpp"
#include "topology/topology.hpp"

namespace flexnet {

struct RouteOption {
  bool ejection = false;
  PortIndex out_port = kInvalidPort;  ///< network port when !ejection
  LinkType hop_type = LinkType::kEjection;
  /// Type sequence of the intended trajectory after taking this hop.
  HopSeq intended_after;
  /// Minimal continuation from the router this hop reaches (the escape).
  HopSeq escape_after;
  /// Packet state updates applied if this option is granted.
  RouteKind kind_after = RouteKind::kMinimal;
  RouterId valiant_after = kInvalidRouter;
  bool valiant_reached_after = false;
  /// True when taking this option abandons a nonminimal trajectory.
  bool is_escape = false;
};

/// Congestion information available to adaptive routing decisions: the
/// sender-side credit occupancy of an output port's downstream buffer.
/// `min_only` restricts to minimally routed packets (FlexVC-minCred).
class CongestionOracle {
 public:
  virtual ~CongestionOracle() = default;
  virtual int port_occupancy(RouterId r, PortIndex p, bool min_only) const = 0;
  virtual int vc_occupancy(RouterId r, PortIndex p, VcIndex vc,
                           bool min_only) const = 0;
};

class RoutingAlgorithm {
 public:
  explicit RoutingAlgorithm(const Topology& topo) : topo_(topo) {}
  virtual ~RoutingAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Appends options in preference order for the head packet of a buffer at
  /// `router`. Never returns an empty list: the escape (minimal) option is
  /// always present for in-flight packets.
  virtual void route(const Packet& pkt, RouterId router, Rng& rng,
                     std::vector<RouteOption>& out) const = 0;

  /// Per-cycle bookkeeping (Piggyback saturation recomputation).
  virtual void update(Cycle /*now*/) {}

  /// True when route() is a pure function of (packet, router): no RNG
  /// draws, no dependence on per-cycle routing state. The allocator may
  /// then park a blocked *uncommitted* head on its blocking resource's
  /// wake edges instead of re-running route() every cycle — the re-run
  /// would return the same options and consume no randomness, so skipping
  /// it is byte-identical. Adaptive and Valiant-based algorithms draw
  /// from the router RNG (or read congestion state) per call and must
  /// keep the default.
  virtual bool draw_free() const { return false; }

 protected:
  RouterId dst_router(const Packet& pkt) const {
    return topo_.router_of_node(pkt.dst);
  }

  /// Option that follows the packet's current trajectory: toward the
  /// Valiant router while one is pending, minimally afterwards.
  RouteOption continue_option(const Packet& pkt, RouterId router,
                              Rng& rng) const;

  /// Option that starts (or restarts) a Valiant trajectory through `vr`.
  RouteOption valiant_option(const Packet& pkt, RouterId router, RouterId vr,
                             Rng& rng) const;

  /// Minimal escape: abandons any nonminimal trajectory. The packet's
  /// RouteKind stays nonminimal if it already misrouted (minCred accounts
  /// the decision, not the remaining path).
  RouteOption escape_option(const Packet& pkt, RouterId router,
                            Rng& rng) const;

  /// Appends the minimal escape after a main option that keeps a Valiant
  /// trajectory pending or starts one. Required even when the main option's
  /// hop would reach the Valiant router: that hop itself may be
  /// inadmissible or blocked, and without the escape the packet would have
  /// no safe fallback (SIII-A).
  void append_escape(const Packet& pkt, RouterId router, Rng& rng,
                     std::vector<RouteOption>& out) const;

  static RouteOption ejection_option();

  const Topology& topo_;
};

/// Uniform-random Valiant intermediate router (the paper's "real Valiant" /
/// Valiant-node: any router may be the intermediate).
RouterId pick_valiant_router(const Topology& topo, Rng& rng);

}  // namespace flexnet
