#include "routing/minimal.hpp"

#include "scenario/registry.hpp"

namespace flexnet {

void MinimalRouting::route(const Packet& pkt, RouterId router, Rng& rng,
                           std::vector<RouteOption>& out) const {
  if (router == dst_router(pkt)) {
    out.push_back(ejection_option());
    return;
  }
  out.push_back(continue_option(pkt, router, rng));
}

HopSeq MinimalRouting::reference_path(const TopologyShape& shape) {
  if (shape.typed)
    return {LinkType::kLocal, LinkType::kGlobal, LinkType::kLocal};
  HopSeq seq;
  for (int i = 0; i < shape.diameter; ++i) seq.push_back(LinkType::kLocal);
  return seq;
}

FLEXNET_REGISTER_ROUTING({
    "min",
    "minimal routing (l-g-l on Dragonfly, direct on diameter-2 networks)",
    {[](const RoutingContext& ctx) -> std::unique_ptr<RoutingAlgorithm> {
       return std::make_unique<MinimalRouting>(ctx.topo);
     },
     &MinimalRouting::reference_path},
    nullptr})

}  // namespace flexnet
