#include "routing/ugal.hpp"

#include "scenario/registry.hpp"

namespace flexnet {

void UgalRouting::route(const Packet& pkt, RouterId router, Rng& rng,
                        std::vector<RouteOption>& out) const {
  if (router == dst_router(pkt)) {
    out.push_back(ejection_option());
    return;
  }
  const bool at_injection = pkt.vc_position < 0 && pkt.hops == 0 &&
                            pkt.valiant == kInvalidRouter &&
                            pkt.route_kind == RouteKind::kMinimal;
  if (at_injection) {
    RouteOption min_opt = continue_option(pkt, router, rng);
    const RouterId vr = pick_valiant_router(topo_, rng);
    RouteOption val_opt = valiant_option(pkt, router, vr, rng);
    const int h_min = 1 + min_opt.intended_after.size();
    const int h_val = 1 + val_opt.intended_after.size();
    const int q_min =
        oracle_.port_occupancy(router, min_opt.out_port, config_.min_only);
    const int q_val =
        oracle_.port_occupancy(router, val_opt.out_port, config_.min_only);
    const bool misroute = q_min * h_min > q_val * h_val +
                          config_.threshold_packets * packet_size_;
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

HopSeq UgalRouting::reference_path(const TopologyShape& shape) {
  HopSeq seq;
  if (shape.typed) {
    seq = {LinkType::kLocal, LinkType::kGlobal, LinkType::kLocal,
           LinkType::kLocal, LinkType::kGlobal, LinkType::kLocal};
  } else {
    for (int i = 0; i < 2 * shape.diameter; ++i)
      seq.push_back(LinkType::kLocal);
  }
  return seq;
}

FLEXNET_REGISTER_ROUTING({
    "ugal",
    "UGAL-L: source-adaptive MIN vs VAL by local credit occupancy",
    {[](const RoutingContext& ctx) -> std::unique_ptr<RoutingAlgorithm> {
       return std::make_unique<UgalRouting>(
           ctx.topo, ctx.oracle, ctx.config.effective_packet_phits(),
           UgalConfig{ctx.config.adaptive_threshold, ctx.config.mincred});
     },
     &UgalRouting::reference_path},
    nullptr})

}  // namespace flexnet
