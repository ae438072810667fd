#include "routing/valiant.hpp"

namespace flexnet {

void ValiantRouting::route_transit(const Packet& pkt, RouterId router,
                                   Rng& rng,
                                   std::vector<RouteOption>& out) const {
  const bool at_injection = pkt.vc_position < 0 && pkt.hops == 0;
  if (at_injection && pkt.valiant == kInvalidRouter) {
    // Fresh Valiant trajectory. The escape below lets FlexVC inject
    // minimally when the opportunistic Valiant first hop has no space
    // (Fig 3b); with enough VCs for safe VAL the option's safe candidates
    // make the packet wait instead, preserving oblivious behaviour.
    out.push_back(valiant_option(pkt, router, pick_valiant_router(topo_, rng),
                                 rng));
  } else {
    out.push_back(continue_option(pkt, router, rng));
  }
  append_escape(pkt, router, rng, out);
}

}  // namespace flexnet
