#include "core/flexvc_policy.hpp"

#include "scenario/registry.hpp"

namespace flexnet {

void FlexVcPolicy::compute_candidates(const HopContext& ctx,
                                      std::vector<VcCandidate>& out) const {
  // The routing function R specifies the highest VC ck allowed for the hop
  // and the selection function picks any cj with 0 <= j <= k (SIII-A):
  //  * Safe hop (the intended path embeds as a safe path): k derives from
  //    the intended path — VCs above it would needlessly break the
  //    trajectory.
  //  * Opportunistic hop: k derives from the shortest safe escape path
  //    (Definition 2) — candidates keep the minimal escape embeddable.
  //
  // Ordering discipline (the deadlock argument of Theorem 1):
  //  * VC indices increase strictly *per link type* along a path; an
  //    equal-index hop (the same VC at the next router) is opportunistic.
  //  * A candidate is *safe* — the packet may wait on it indefinitely —
  //    only in the packet's own class segment, at a strictly higher
  //    template position than the packet's buffer, with the intended path
  //    embeddable in the own segment above it. Waiting chains then follow
  //    the acyclic template order, and replies never wait on request VCs
  //    (which would close the protocol-deadlock cycle through the
  //    consumption ports). Everything else is opportunistic: granted only
  //    with credits and output space in hand, adding no wait edges.
  //
  // Preference phases: replies prefer their own segment when it can carry
  // the intended trajectory (request VCs are what "opportunistic reply
  // hops following nonminimal paths can leverage", SIII-B — not the first
  // choice for minimal replies, which would starve the requests that
  // produce them).
  const int limit = tmpl_.class_limit(ctx.cls);
  const int type_floor = tmpl_.floor_of(ctx.floors, ctx.hop_type);

  const auto consider = [&](bool intended_mode, bool own_segment_only) {
    for (int pos : tmpl_.positions_of_type(ctx.hop_type)) {
      if (pos < type_floor || pos >= limit) continue;
      const VcRef& vc = tmpl_.at(pos);
      // Requests must not occupy reply VCs (protocol deadlock, SIII-B).
      if (ctx.cls == MsgClass::kRequest && vc.cls == MsgClass::kReply)
        continue;
      if (own_segment_only && vc.cls != ctx.cls) continue;
      VcTemplate::TypeFloors next = ctx.floors;
      tmpl_.floor_of(next, ctx.hop_type) = pos;
      // The safe escape path must exist from the candidate buffer
      // (Definition 2): template-increasing above it within the packet's
      // own segment.
      if (!tmpl_.embed_path(ctx.escape_after, next, pos, ctx.cls)) continue;
      if (intended_mode &&
          !tmpl_.embed_reachable(ctx.intended_after, next, pos, ctx.cls))
        continue;
      VcCandidate cand;
      cand.phys = tmpl_.physical_index(vc);
      cand.position = pos;
      cand.safe = vc.cls == ctx.cls && pos > ctx.position &&
                  pos > type_floor &&
                  tmpl_.embed_path(ctx.intended_after, next, pos, ctx.cls);
      out.push_back(cand);
    }
  };

  // Each phase runs only while the earlier ones appended nothing.
  const std::size_t start = out.size();
  const auto none = [&] { return out.size() == start; };
  consider(/*intended_mode=*/true, /*own_segment_only=*/true);
  if (none()) consider(/*intended_mode=*/true, /*own_segment_only=*/false);
  if (none()) consider(/*intended_mode=*/false, /*own_segment_only=*/true);
  if (none()) consider(/*intended_mode=*/false, /*own_segment_only=*/false);
}

FLEXNET_REGISTER_VC_POLICY({
    "flexvc",
    "FlexVC: any VC admissible that preserves a safe escape embedding "
    "(paper SIII)",
    [](const VcArrangement& arrangement) -> std::unique_ptr<VcPolicy> {
      return std::make_unique<FlexVcPolicy>(arrangement);
    },
    nullptr})

}  // namespace flexnet
