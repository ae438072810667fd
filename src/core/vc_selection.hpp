// VC selection functions (paper SVI-A).
//
// When FlexVC admits several VCs for a hop, the router picks one among those
// with room for the whole packet. The paper evaluates four functions and
// finds JSQ best, closely followed by highest-VC; lowest-VC consistently
// worst (it saturates the low-index VCs needed by earlier hops).
#pragma once

#include "common/rng.hpp"
#include "core/vc_policy.hpp"

namespace flexnet {

enum class VcSelection {
  kJsq,      ///< Join the Shortest Queue: most free space downstream
  kHighest,  ///< highest template position
  kLowest,   ///< lowest template position
  kRandom,   ///< uniform among feasible
};

/// Picks one candidate among those for which `free_phits(phys) >= needed`.
/// Returns the index into `cands`, or -1 if none is feasible.
///
/// `free_phits` reports the sender-side credit count for the downstream VC.
/// Templated over the callable so the per-candidate ledger probe inlines —
/// this runs once per route option per allocation attempt, and the
/// type-erased std::function it replaced was a measurable slice of the
/// saturated-path profile.
template <typename FreePhitsFn>
int select_vc(VcSelection policy, CandidateSpan cands,
              const FreePhitsFn& free_phits, int needed, Rng& rng) {
  int best = -1;
  int best_free = -1;
  int feasible_count = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const int free = free_phits(cands[i].phys);
    if (free < needed) continue;
    ++feasible_count;
    switch (policy) {
      case VcSelection::kJsq:
        // Ties break toward the lower template position: packets early in
        // their path stay in low VCs, relegating the higher-index VCs to
        // the later hops that have no alternative (SIII-A: this is what
        // makes FlexVC "immune to congestion caused by excessive occupancy
        // of a single buffer").
        if (free > best_free) {
          best = static_cast<int>(i);
          best_free = free;
        }
        break;
      case VcSelection::kHighest:
        best = static_cast<int>(i);  // candidates are position-ascending
        break;
      case VcSelection::kLowest:
        if (best < 0) best = static_cast<int>(i);
        break;
      case VcSelection::kRandom:
        // Reservoir sampling over the feasible subset.
        if (rng.next_below(static_cast<std::uint64_t>(feasible_count)) == 0)
          best = static_cast<int>(i);
        break;
    }
  }
  return best;
}

}  // namespace flexnet
