#include "core/baseline_policy.hpp"

namespace flexnet {

void BaselinePolicy::compute_candidates(const HopContext& ctx,
                                        std::vector<VcCandidate>& out) const {
  // The baseline follows the reference path: each hop takes the lowest slot
  // of its link type strictly after the packet's current template position,
  // within the packet's own class segment (Fig 1: minimal traffic uses the
  // *first* VCs of the reference path; shorter paths such as l0-g1 use its
  // prefix slots — phase-aligned, so e.g. the post-Valiant global hop of an
  // l-l-g-l path lands in g1, above the l1 slot it follows). A candidate is
  // only produced when the remaining intended path still embeds above it —
  // otherwise the routing is unsupported by this arrangement (e.g. Valiant
  // with 2/1 VCs) and validation rejects it.
  const int lo = tmpl_.segment_lo(ctx.cls);
  const int hi = tmpl_.segment_hi(ctx.cls);
  const int pos =
      tmpl_.lowest_of_type(ctx.hop_type, std::max(ctx.position + 1, lo), hi);
  if (pos < 0) return;
  VcTemplate::TypeFloors next = ctx.floors;
  tmpl_.floor_of(next, ctx.hop_type) = pos;
  if (!tmpl_.embed_path(ctx.intended_after, next, pos, ctx.cls)) return;
  VcCandidate cand;
  cand.phys = tmpl_.physical_index(tmpl_.at(pos));
  cand.position = pos;
  cand.safe = true;
  out.push_back(cand);
}

}  // namespace flexnet
