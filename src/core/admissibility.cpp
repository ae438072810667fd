#include "core/admissibility.hpp"

#include "common/check.hpp"
#include "core/vc_policy.hpp"

namespace flexnet {
namespace {

/// Greedy opportunistic traversal: at each hop take the lowest VC of the
/// hop type strictly above that type's floor that keeps the worst-case
/// escape continuation embeddable. Because escape feasibility only shrinks
/// as positions grow, lowest-feasible is optimal, so greedy failure proves
/// no traversal exists.
bool greedy_traversal(const VcTemplate& tmpl, MsgClass cls,
                      const CanonicalPath& path) {
  const int limit = tmpl.class_limit(cls);
  VcTemplate::TypeFloors floors = VcTemplate::no_floors();
  for (const auto& hop : path) {
    const int type_floor = tmpl.floor_of(floors, hop.type);
    int chosen = -1;
    for (int p : tmpl.positions_of_type(hop.type)) {
      // Equality (re-using the same VC index at the next router) is an
      // opportunistic hop per Definition 2 — Fig 3b's Valiant path takes
      // two consecutive hops in c0.
      if (p < type_floor || p >= limit) continue;
      if (cls == MsgClass::kRequest && tmpl.at(p).cls == MsgClass::kReply)
        continue;
      VcTemplate::TypeFloors next = floors;
      tmpl.floor_of(next, hop.type) = p;
      if (tmpl.embed_path(hop.worst_escape_after, next, p, cls)) {
        chosen = p;
        break;
      }
    }
    if (chosen < 0) return false;
    tmpl.floor_of(floors, hop.type) = chosen;
  }
  return true;
}

}  // namespace

const char* to_string(PathSupport s) {
  switch (s) {
    case PathSupport::kSafe:
      return "safe";
    case PathSupport::kOpportunistic:
      return "opport.";
    case PathSupport::kForbidden:
      return "X";
  }
  return "?";
}

PathSupport classify_flexvc(const VcTemplate& tmpl, MsgClass cls,
                            const CanonicalRouting& routing) {
  // Safe: the full reference path embeds within the class's own segment.
  if (tmpl.embed_safe(types_of(routing.full), kInjectionPosition, cls) >= 0)
    return PathSupport::kSafe;
  if (greedy_traversal(tmpl, cls, routing.full))
    return PathSupport::kOpportunistic;
  for (const auto& variant : routing.variants)
    if (greedy_traversal(tmpl, cls, variant))
      return PathSupport::kOpportunistic;
  return PathSupport::kForbidden;
}

PathSupport classify_baseline(const VcTemplate& tmpl, MsgClass cls,
                              const CanonicalRouting& routing) {
  // The baseline requires, per link type, as many VCs of the packet's own
  // class as the reference path has hops of that type.
  const VcArrangement& arr = tmpl.arrangement();
  const HopSeq seq = types_of(routing.full);
  const bool typed = arr.typed;
  const int need_local = typed ? seq.count(LinkType::kLocal) : seq.size();
  const int need_global = typed ? seq.count(LinkType::kGlobal) : 0;
  if (arr.count(cls, LinkType::kLocal) >= need_local &&
      (!typed || arr.count(cls, LinkType::kGlobal) >= need_global))
    return PathSupport::kSafe;
  return PathSupport::kForbidden;
}

std::string support_label(PathSupport request, PathSupport reply) {
  if (request == reply) return to_string(request);
  return std::string(to_string(request)) + " / " + to_string(reply);
}

std::string support_label(PathSupport single) { return to_string(single); }

}  // namespace flexnet
