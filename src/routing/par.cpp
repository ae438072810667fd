#include "routing/par.hpp"

namespace flexnet {

void ParRouting::route(const Packet& pkt, RouterId router, Rng& rng,
                       std::vector<RouteOption>& out) const {
  if (router == dst_router(pkt)) {
    out.push_back(ejection_option());
    return;
  }
  // The progressive window: still routing minimally, still inside the
  // source group, and at most one hop taken.
  const GroupId src_group = topo_.group_of(topo_.router_of_node(pkt.src));
  const bool window = pkt.valiant == kInvalidRouter &&
                      pkt.route_kind == RouteKind::kMinimal &&
                      topo_.group_of(router) == src_group && pkt.hops <= 1;
  if (window) {
    RouteOption min_opt = continue_option(pkt, router, rng);
    const RouterId vr = pick_valiant_router(topo_, rng);
    RouteOption val_opt = valiant_option(pkt, router, vr, rng);
    const int q_min =
        oracle_.port_occupancy(router, min_opt.out_port, config_.min_only);
    const int q_val =
        oracle_.port_occupancy(router, val_opt.out_port, config_.min_only);
    // UGAL-style comparison with hop-count weights 1 (MIN) vs 2 (VAL).
    const bool misroute =
        q_min > 2 * q_val + config_.threshold_packets * packet_size_;
    if (misroute) {
      out.push_back(val_opt);
      append_escape(pkt, router, rng, out);
    } else {
      out.push_back(min_opt);
    }
    return;
  }
  out.push_back(continue_option(pkt, router, rng));
  append_escape(pkt, router, rng, out);
}

HopSeq ParRouting::reference_path(const TopologyShape& shape) {
  HopSeq seq;
  if (shape.typed) {
    // l l g l l g l (SII: PAR needs 5/2).
    seq = {LinkType::kLocal,  LinkType::kLocal, LinkType::kGlobal,
           LinkType::kLocal,  LinkType::kLocal, LinkType::kGlobal,
           LinkType::kLocal};
  } else {
    for (int i = 0; i < 2 * shape.diameter + 1; ++i)
      seq.push_back(LinkType::kLocal);
  }
  return seq;
}

}  // namespace flexnet
