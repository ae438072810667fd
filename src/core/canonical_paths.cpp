#include "core/canonical_paths.hpp"

namespace flexnet {
namespace {

constexpr LinkType kL = LinkType::kLocal;
constexpr LinkType kG = LinkType::kGlobal;

CanonicalPath make_path(std::initializer_list<LinkType> types,
                        std::initializer_list<HopSeq> escapes) {
  CanonicalPath path;
  auto e = escapes.begin();
  for (LinkType t : types) {
    CanonicalHop hop;
    hop.type = t;
    hop.worst_escape_after = *e++;
    path.push_back(hop);
  }
  return path;
}

}  // namespace

HopSeq types_of(const CanonicalPath& path) {
  HopSeq seq;
  for (const auto& hop : path) seq.push_back(hop.type);
  return seq;
}

// --- Generic diameter-2 (untyped): minimal paths have at most 2 hops, so
// the worst minimal continuation anywhere is {L, L}; on the final approach
// it shrinks to {L} and then nothing.

CanonicalRouting generic_d2_min() {
  return {make_path({kL, kL}, {HopSeq{kL}, HopSeq{}}), {}};
}

CanonicalRouting generic_d2_valiant() {
  // src -> i1 -> VR -> j1 -> dst: after each of the first two hops the
  // escape is the (worst-case) 2-hop minimal path; the last two hops are
  // themselves the minimal path from the Valiant router.
  return {make_path({kL, kL, kL, kL},
                    {HopSeq{kL, kL}, HopSeq{kL, kL}, HopSeq{kL}, HopSeq{}}),
          {}};
}

CanonicalRouting generic_d2_par() {
  // One minimal hop (escape: the 1 remaining minimal hop), then a full
  // Valiant path from the intermediate router.
  return {make_path({kL, kL, kL, kL, kL},
                    {HopSeq{kL}, HopSeq{kL, kL}, HopSeq{kL, kL}, HopSeq{kL},
                     HopSeq{}}),
          {}};
}

// --- Dragonfly (typed, diameter 3, minimal = l-g-l): the worst minimal
// continuation outside the destination group is {L, G, L}; from a router
// owning the global link toward the destination group it is {G, L}; inside
// the destination group {L}.

CanonicalRouting dragonfly_min() {
  return {make_path({kL, kG, kL}, {HopSeq{kG, kL}, HopSeq{kL}, HopSeq{}}),
          {}};
}

CanonicalRouting dragonfly_valiant() {
  // Full Valiant-to-router path l g l l g l (paper SII): src group local,
  // global to intermediate group, local to the Valiant router, then the
  // minimal path l g l from it.
  CanonicalPath full = make_path(
      {kL, kG, kL, kL, kG, kL},
      {HopSeq{kL, kG, kL}, HopSeq{kL, kG, kL}, HopSeq{kL, kG, kL},
       HopSeq{kG, kL}, HopSeq{kL}, HopSeq{}});
  // Variant with the entry router of the intermediate group acting as the
  // Valiant router: l g l g l, the 3/2 reference of SIII-C.
  CanonicalPath entry_router = make_path(
      {kL, kG, kL, kG, kL},
      {HopSeq{kL, kG, kL}, HopSeq{kL, kG, kL}, HopSeq{kG, kL}, HopSeq{kL},
       HopSeq{}});
  return {full, {entry_router}};
}

CanonicalRouting dragonfly_par() {
  // One minimal local hop, then full Valiant: l l g l l g l (the 5/2
  // reference of SII).
  CanonicalPath full = make_path(
      {kL, kL, kG, kL, kL, kG, kL},
      {HopSeq{kG, kL}, HopSeq{kL, kG, kL}, HopSeq{kL, kG, kL},
       HopSeq{kL, kG, kL}, HopSeq{kG, kL}, HopSeq{kL}, HopSeq{}});
  // Entry-router Valiant variant after the minimal hop: l l g l g l.
  CanonicalPath entry_router = make_path(
      {kL, kL, kG, kL, kG, kL},
      {HopSeq{kG, kL}, HopSeq{kL, kG, kL}, HopSeq{kL, kG, kL}, HopSeq{kG, kL},
       HopSeq{kL}, HopSeq{}});
  return {full, {entry_router}};
}

}  // namespace flexnet
