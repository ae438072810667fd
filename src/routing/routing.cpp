#include "routing/routing.hpp"

#include "common/check.hpp"

namespace flexnet {

RouterId pick_valiant_router(const Topology& topo, Rng& rng) {
  return topo.random_router(rng);
}

RouteOption RoutingAlgorithm::ejection_option() {
  RouteOption opt;
  opt.ejection = true;
  opt.hop_type = LinkType::kEjection;
  return opt;
}

RouteOption RoutingAlgorithm::continue_option(const Packet& pkt,
                                              RouterId router,
                                              Rng& rng) const {
  const RouterId dst = dst_router(pkt);
  const bool valiant_pending = pkt.valiant != kInvalidRouter &&
                               !pkt.valiant_reached && pkt.valiant != router;
  if (valiant_pending) return valiant_option(pkt, router, pkt.valiant, rng);

  FLEXNET_DCHECK(router != dst);
  RouteOption opt;
  opt.out_port = topo_.min_next_port(router, dst, &rng);
  const PortDesc& hop = topo_.port(router, opt.out_port);
  opt.hop_type = hop.type;
  const RouterId next = hop.neighbor;
  opt.intended_after = topo_.min_hop_types(next, dst);
  opt.escape_after = opt.intended_after;
  opt.kind_after = pkt.route_kind;  // sticky: past misrouting stays nonminimal
  opt.valiant_after = pkt.valiant;
  opt.valiant_reached_after =
      pkt.valiant_reached || pkt.valiant == router || pkt.valiant == next;
  return opt;
}

RouteOption RoutingAlgorithm::valiant_option(const Packet& pkt,
                                             RouterId router, RouterId vr,
                                             Rng& rng) const {
  const RouterId dst = dst_router(pkt);
  RouteOption opt;
  opt.kind_after = RouteKind::kNonminimal;
  opt.valiant_after = vr;
  if (vr == router || vr == dst) {
    // Degenerate intermediate: the trajectory is the minimal path, but the
    // routing decision was nonminimal (minCred accounts decisions).
    opt.valiant_reached_after = true;
    opt.out_port = topo_.min_next_port(router, dst, &rng);
    const PortDesc& hop = topo_.port(router, opt.out_port);
    opt.hop_type = hop.type;
    const RouterId next = hop.neighbor;
    opt.intended_after = topo_.min_hop_types(next, dst);
    opt.escape_after = opt.intended_after;
    return opt;
  }
  opt.out_port = topo_.min_next_port(router, vr, &rng);
  const PortDesc& hop = topo_.port(router, opt.out_port);
  opt.hop_type = hop.type;
  const RouterId next = hop.neighbor;
  opt.valiant_reached_after = next == vr;
  opt.intended_after =
      topo_.min_hop_types(next, vr) + topo_.min_hop_types(vr, dst);
  opt.escape_after = topo_.min_hop_types(next, dst);
  return opt;
}

void RoutingAlgorithm::append_escape(const Packet& pkt, RouterId router,
                                     Rng& rng,
                                     std::vector<RouteOption>& out) const {
  if (out.empty()) return;
  const RouteOption& main = out.back();
  if (main.is_escape || main.ejection) return;
  if (main.valiant_after == kInvalidRouter) return;
  // Pending before the hop: a fresh Valiant decision at injection, or an
  // in-transit trajectory whose intermediate router is still ahead.
  const bool pending =
      !pkt.valiant_reached &&
      (pkt.valiant == kInvalidRouter || pkt.valiant != router);
  if (!pending) return;
  out.push_back(escape_option(pkt, router, rng));
}

RouteOption RoutingAlgorithm::escape_option(const Packet& pkt, RouterId router,
                                            Rng& rng) const {
  const RouterId dst = dst_router(pkt);
  FLEXNET_DCHECK(router != dst);
  RouteOption opt;
  opt.out_port = topo_.min_next_port(router, dst, &rng);
  const PortDesc& hop = topo_.port(router, opt.out_port);
  opt.hop_type = hop.type;
  const RouterId next = hop.neighbor;
  opt.intended_after = topo_.min_hop_types(next, dst);
  opt.escape_after = opt.intended_after;
  opt.kind_after = pkt.route_kind;
  opt.valiant_after = kInvalidRouter;  // abandon the Valiant trajectory
  opt.valiant_reached_after = true;
  opt.is_escape = true;
  return opt;
}

}  // namespace flexnet
