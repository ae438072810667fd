#include "routing/piggyback.hpp"

#include "scenario/registry.hpp"

#include "common/check.hpp"

namespace flexnet {

PiggybackRouting::PiggybackRouting(
    const Dragonfly& topo, const CongestionOracle& oracle, int packet_size,
    const PiggybackConfig& config,
    std::array<VcIndex, kNumMsgClasses> first_vc_of_class)
    : RoutingAlgorithm(topo),
      df_(topo),
      oracle_(oracle),
      packet_size_(packet_size),
      config_(config),
      first_vc_of_class_(first_vc_of_class) {
  const std::size_t bits =
      static_cast<std::size_t>(df_.num_routers()) *
      static_cast<std::size_t>(df_.params().h);
  for (auto& v : sat_) v.assign(bits, false);
}

std::string PiggybackRouting::name() const {
  std::string n = "pb-per-";
  n += config_.per_vc ? "vc" : "port";
  if (config_.min_only) n += "-min";
  return n;
}

int PiggybackRouting::sensed_occupancy(RouterId router, PortIndex port,
                                       MsgClass cls) const {
  if (config_.per_vc)
    return oracle_.vc_occupancy(router, port, first_vc_of_class_[static_cast<int>(cls)],
                                config_.min_only);
  return oracle_.port_occupancy(router, port, config_.min_only);
}

void PiggybackRouting::update(Cycle /*now*/) {
  const int h = df_.params().h;
  const int classes = 1 + (first_vc_of_class_[1] != kInvalidVc ? 1 : 0);
  for (int c = 0; c < classes; ++c) {
    const auto cls = static_cast<MsgClass>(c);
    for (RouterId r = 0; r < df_.num_routers(); ++r) {
      // Average occupancy over this router's global ports.
      int total = 0;
      const PortIndex first_global = df_.params().a - 1;
      for (int j = 0; j < h; ++j)
        total += sensed_occupancy(r, first_global + j, cls);
      const double avg = static_cast<double>(total) / h;
      const int floor = config_.saturation_floor_packets * packet_size_;
      for (int j = 0; j < h; ++j) {
        const int occ = sensed_occupancy(r, first_global + j, cls);
        sat_[c][static_cast<std::size_t>(r) * h + j] =
            occ >= floor && static_cast<double>(occ) >
                                config_.saturation_factor * avg;
      }
    }
  }
}

bool PiggybackRouting::saturated(RouterId router, PortIndex global_port,
                                 MsgClass cls) const {
  const int j = global_port - (df_.params().a - 1);
  FLEXNET_DCHECK(j >= 0 && j < df_.params().h);
  return sat_[static_cast<int>(cls)]
             [static_cast<std::size_t>(router) * df_.params().h + j];
}

void PiggybackRouting::route(const Packet& pkt, RouterId router, Rng& rng,
                             std::vector<RouteOption>& out) const {
  const RouterId dst = dst_router(pkt);
  if (router == dst) {
    out.push_back(ejection_option());
    return;
  }
  const bool at_injection = pkt.vc_position < 0 && pkt.hops == 0 &&
                            pkt.valiant == kInvalidRouter &&
                            pkt.route_kind == RouteKind::kMinimal;
  if (at_injection && df_.group_of(router) != df_.group_of(dst)) {
    RouteOption min_opt = continue_option(pkt, router, rng);
    const RouterId vr = pick_valiant_router(topo_, rng);
    RouteOption val_opt = valiant_option(pkt, router, vr, rng);
    // Saturation state of the global link the minimal path would use; the
    // owning router may be elsewhere in the group (the remote-congestion
    // problem PB solves).
    PortIndex gport = kInvalidPort;
    const RouterId owner =
        df_.global_link_owner(router, df_.group_of(dst), gport);
    const bool sat = saturated(owner, gport, pkt.cls);
    const int q_min =
        oracle_.port_occupancy(router, min_opt.out_port, config_.min_only);
    const int q_val =
        oracle_.port_occupancy(router, val_opt.out_port, config_.min_only);
    const bool misroute =
        sat || q_min > 2 * q_val + config_.threshold_packets * packet_size_;
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

HopSeq PiggybackRouting::reference_path(const TopologyShape& /*shape*/) {
  return {LinkType::kLocal, LinkType::kGlobal, LinkType::kLocal,
          LinkType::kLocal, LinkType::kGlobal, LinkType::kLocal};
}

FLEXNET_REGISTER_ROUTING({
    "pb",
    "Piggyback: UGAL-L plus broadcast saturation bits (Dragonfly only)",
    {[](const RoutingContext& ctx) -> std::unique_ptr<RoutingAlgorithm> {
       auto* df = dynamic_cast<const Dragonfly*>(&ctx.topo);
       FLEXNET_CHECK_MSG(df != nullptr,
                         "Piggyback routing requires a Dragonfly");
       // Minimal traffic uses the first global VC of its class segment — the
       // VC the per-VC variant senses.
       std::array<VcIndex, kNumMsgClasses> first_vc{0, kInvalidVc};
       if (ctx.arrangement.has_reply())
         first_vc[1] =
             ctx.arrangement.count(MsgClass::kRequest, LinkType::kGlobal);
       PiggybackConfig pb;
       pb.per_vc = ctx.config.pb_per_vc;
       pb.min_only = ctx.config.mincred;
       pb.threshold_packets = ctx.config.adaptive_threshold;
       return std::make_unique<PiggybackRouting>(
           *df, ctx.oracle, ctx.config.effective_packet_phits(), pb, first_vc);
     },
     &PiggybackRouting::reference_path},
    [](const SimConfig& cfg) {
      if (cfg.topology != "dragonfly")
        throw std::invalid_argument(
            "routing 'pb' senses per-group global channels and requires "
            "topology=dragonfly");
    }})

}  // namespace flexnet
