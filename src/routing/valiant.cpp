#include "routing/valiant.hpp"

#include "scenario/registry.hpp"

namespace flexnet {

void ValiantRouting::route(const Packet& pkt, RouterId router, Rng& rng,
                           std::vector<RouteOption>& out) const {
  if (router == dst_router(pkt)) {
    out.push_back(ejection_option());
    return;
  }
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

HopSeq ValiantRouting::reference_path(const TopologyShape& shape) {
  HopSeq seq;
  if (shape.typed) {
    // l g l + l g l (SII: Valiant-node needs 4/2).
    seq = {LinkType::kLocal, LinkType::kGlobal, LinkType::kLocal,
           LinkType::kLocal, LinkType::kGlobal, LinkType::kLocal};
  } else {
    for (int i = 0; i < 2 * shape.diameter; ++i)
      seq.push_back(LinkType::kLocal);
  }
  return seq;
}

FLEXNET_REGISTER_ROUTING({
    "val",
    "Valiant: nonminimal oblivious via a uniform-random intermediate router",
    {[](const RoutingContext& ctx) -> std::unique_ptr<RoutingAlgorithm> {
       return std::make_unique<ValiantRouting>(ctx.topo);
     },
     &ValiantRouting::reference_path},
    nullptr})

}  // namespace flexnet
