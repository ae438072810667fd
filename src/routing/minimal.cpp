#include "routing/minimal.hpp"

namespace flexnet {

void MinimalRouting::route_transit(const Packet& pkt, RouterId router,
                                   Rng& rng,
                                   std::vector<RouteOption>& out) const {
  out.push_back(continue_option(pkt, router, rng));
}

}  // namespace flexnet
