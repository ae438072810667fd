#include "routing/minimal.hpp"

namespace flexnet {

void MinimalRouting::route_transit(const Packet& pkt, RouterId router,
                                   Rng& rng,
                                   std::vector<RouteOption>& out) const {
  out.push_back(continue_option(pkt, router, rng));
}

HopSeq MinimalRouting::reference_path(const TopologyShape& shape) {
  if (shape.typed)
    return {LinkType::kLocal, LinkType::kGlobal, LinkType::kLocal};
  HopSeq seq;
  for (int i = 0; i < shape.diameter; ++i) seq.push_back(LinkType::kLocal);
  return seq;
}

}  // namespace flexnet
