// FlexVC: the paper's flexible VC management mechanism (SIII).
//
// A packet occupying a buffer at template position p may take a hop into any
// VC v of the hop's link type with
//   (1) position(v) >= p                   (non-decreasing order, Def. 2) and
//   (2) the minimal escape path from the next router embeds strictly above
//       position(v) within the packet's class limit (Def. 1/2), so a safe
//       path to the destination always remains reachable.
// Requests are confined to the request segment of the unified template;
// replies may additionally use request VCs (Theorem 2).
#pragma once

#include "core/vc_policy.hpp"

namespace flexnet {

class FlexVcPolicy : public VcPolicy {
 public:
  using VcPolicy::VcPolicy;

 protected:
  void compute_candidates(const HopContext& ctx,
                          std::vector<VcCandidate>& out) const override;
};

}  // namespace flexnet
