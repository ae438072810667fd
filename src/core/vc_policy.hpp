// Buffer-management policy interface: which VCs may a packet use for its
// next hop?
//
// The router's routing unit builds a HopContext per candidate output port
// (intended hop and, for FlexVC non-minimal routings, the minimal escape
// hop) and asks the policy for the admissible VCs on the downstream input
// port. The baseline policy returns the single distance-based VC; FlexVC
// returns every VC that keeps a safe escape path available (paper SIII-A).
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/hop_seq.hpp"
#include "core/vc_template.hpp"

namespace flexnet {

/// Everything the policy needs to know about one prospective hop.
struct HopContext {
  MsgClass cls = MsgClass::kRequest;
  /// Link type of the hop under consideration.
  LinkType hop_type = LinkType::kLocal;
  /// Template position of the buffer currently holding the packet
  /// (kInjectionPosition in an injection queue). Safe (waitable) candidates
  /// must sit strictly above it — waiting chains follow the template order
  /// and stay acyclic.
  int position = -1;
  /// Per-link-type floors: template positions of the last local/global VC
  /// the packet has occupied (VcTemplate::kNoFloor when none). VC indices
  /// increase per type along a path; opportunistic hops may descend in
  /// template order (credits in hand, Definition 2) but never per type.
  VcTemplate::TypeFloors floors = VcTemplate::no_floors();
  /// Type sequence of the packet's intended route AFTER this hop.
  HopSeq intended_after;
  /// Type sequence of the minimal path from the router reached by this hop
  /// to the destination — the escape path of Definition 2.
  HopSeq escape_after;
};

inline constexpr int kInjectionPosition = -1;

/// One admissible VC on the downstream input port.
struct VcCandidate {
  VcIndex phys = kInvalidVc;  ///< physical buffer index on that port
  int position = -1;          ///< template position
  bool safe = false;          ///< intended route embeds above this VC too
};

class VcPolicy {
 public:
  explicit VcPolicy(const VcArrangement& arrangement) : tmpl_(arrangement) {}
  virtual ~VcPolicy() = default;

  /// Appends the admissible VCs for the hop to `out` in ascending template
  /// position order. An empty result means the hop itself is inadmissible
  /// (the routing layer must fall back to the escape route).
  virtual void candidates(const HopContext& ctx,
                          std::vector<VcCandidate>& out) const = 0;

  const VcTemplate& tmpl() const { return tmpl_; }

 protected:
  VcTemplate tmpl_;
};

}  // namespace flexnet
