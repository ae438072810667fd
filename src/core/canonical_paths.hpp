// Canonical worst-case path descriptions for the analytical admissibility
// classification of Tables I-IV.
//
// A canonical hop records the link type traversed and the worst-case minimal
// escape continuation available after the hop, derived from the topology
// family's structure (e.g. after the global hop of a Dragonfly Valiant path
// the packet sits in the entry router of the intermediate group, from which
// the minimal path to the destination is at worst local-global-local).
#pragma once

#include <string>
#include <vector>

#include "core/hop_seq.hpp"

namespace flexnet {

struct CanonicalHop {
  LinkType type = LinkType::kLocal;
  HopSeq worst_escape_after;  ///< minimal continuation after taking the hop
};

using CanonicalPath = std::vector<CanonicalHop>;

/// A routing mechanism described by its full reference path plus shorter
/// valid variants (e.g. a Valiant path whose intermediate router is the
/// entry router of the intermediate group). A routing is *safe* under an
/// arrangement when the full reference embeds; *opportunistic* when any
/// variant can be traversed greedily with every hop keeping an escape.
struct CanonicalRouting {
  std::string name;
  CanonicalPath full;
  std::vector<CanonicalPath> variants;  // does not include `full`
};

/// Generic diameter-2 network without link-type restrictions (Slim Fly) —
/// paper SIII-A, Tables I and II.
CanonicalRouting generic_d2_min();
CanonicalRouting generic_d2_valiant();
CanonicalRouting generic_d2_par();

/// Diameter-3 Dragonfly with local/global link-type restrictions — paper
/// SIII-C, Tables III and IV.
CanonicalRouting dragonfly_min();
CanonicalRouting dragonfly_valiant();
CanonicalRouting dragonfly_par();

}  // namespace flexnet
