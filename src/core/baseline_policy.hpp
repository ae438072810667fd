// Baseline distance-based deadlock avoidance (Gunther/Gopal style, SII).
//
// Each hop uses exactly one VC: the lowest slot of the hop's link type
// strictly after the current position in the reference path (Fig 1: hop i
// uses VC ci; shorter paths use the prefix slots, e.g. l0-g1 for a 2-hop
// minimal route under the Valiant reference). Strictly increasing positions
// guarantee deadlock freedom — at the cost of using only a subset of the
// buffers for shorter paths (the inefficiency FlexVC removes) and of
// confining each message class to its own virtual network.
#pragma once

#include "core/vc_policy.hpp"

namespace flexnet {

class BaselinePolicy : public VcPolicy {
 public:
  using VcPolicy::VcPolicy;

 protected:
  void compute_candidates(const HopContext& ctx,
                          std::vector<VcCandidate>& out) const override;
};

}  // namespace flexnet
