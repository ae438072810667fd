#include "routing/adaptive.hpp"

#include "common/check.hpp"
#include "topology/dragonfly.hpp"

namespace flexnet {

namespace {

/// PB: a global port is saturated when its occupancy exceeds this multiple
/// of the mean over its router's global ports...
constexpr double kSaturationFactor = 1.5;
/// ...and is at least this many packets.
constexpr int kSaturationFloorPackets = 2;

bool at_injection(const Packet& pkt) {
  return pkt.vc_position < 0 && pkt.hops == 0;
}

}  // namespace

AdaptiveRouting::AdaptiveRouting(const Topology& topo,
                                 const CongestionOracle& oracle,
                                 int packet_size, AdaptiveRule rule,
                                 const AdaptiveConfig& config)
    : RoutingAlgorithm(topo),
      oracle_(oracle),
      packet_size_(packet_size),
      rule_(rule),
      config_(config) {
  if (rule != AdaptiveRule::kPiggyback) return;
  df_ = dynamic_cast<const Dragonfly*>(&topo);
  FLEXNET_CHECK_MSG(df_ != nullptr, "Piggyback routing requires a Dragonfly");
  const std::size_t bits = static_cast<std::size_t>(df_->num_routers()) *
                           static_cast<std::size_t>(df_->params().h);
  for (auto& v : sat_) v.assign(bits, false);
}

void AdaptiveRouting::route_transit(const Packet& pkt, RouterId router,
                                    Rng& rng,
                                    std::vector<RouteOption>& out) const {
  if (!in_window(pkt, router)) {
    out.push_back(continue_option(pkt, router, rng));
    append_escape(pkt, router, rng, out);
    return;
  }
  // Every rule draws in this order: the minimal option, the Valiant
  // router, the Valiant option.
  const RouteOption min = continue_option(pkt, router, rng);
  const RouteOption val =
      valiant_option(pkt, router, pick_valiant_router(topo_, rng), rng);
  // UGAL weighs each option's queue by its path length; PAR and PB by 1
  // (MIN) vs 2 (VAL).
  const bool ugal = rule_ == AdaptiveRule::kUgal;
  const int h_min = ugal ? 1 + min.intended_after.size() : 1;
  const int h_val = ugal ? 1 + val.intended_after.size() : 2;
  const int q_min =
      oracle_.port_occupancy(router, min.out_port, config_.min_only);
  const int q_val =
      oracle_.port_occupancy(router, val.out_port, config_.min_only);
  const int threshold = config_.threshold_packets * packet_size_;
  const bool misroute =
      q_min * h_min > q_val * h_val + threshold ||
      (rule_ == AdaptiveRule::kPiggyback && min_link_saturated(pkt, router));
  if (!misroute) {
    out.push_back(min);
    return;
  }
  out.push_back(val);
  append_escape(pkt, router, rng, out);
}

bool AdaptiveRouting::in_window(const Packet& pkt, RouterId router) const {
  // Every window closes once the packet has taken a Valiant trajectory.
  if (pkt.valiant != kInvalidRouter || pkt.route_kind != RouteKind::kMinimal)
    return false;
  switch (rule_) {
    case AdaptiveRule::kUgal:
      return at_injection(pkt);
    case AdaptiveRule::kPar:
      return pkt.hops <= 1 && topo_.group_of(router) ==
                                  topo_.group_of(topo_.router_of_node(pkt.src));
    case AdaptiveRule::kPiggyback:
      return at_injection(pkt) &&
             topo_.group_of(router) != topo_.group_of(dst_router(pkt));
  }
  return false;
}

bool AdaptiveRouting::min_link_saturated(const Packet& pkt,
                                         RouterId router) const {
  // The link's owner may be elsewhere in the group: the remote-congestion
  // problem PB solves.
  PortIndex gport = kInvalidPort;
  const RouterId owner =
      df_->global_link_owner(router, df_->group_of(dst_router(pkt)), gport);
  return saturated(owner, gport, pkt.cls);
}

int AdaptiveRouting::sensed_occupancy(RouterId router, PortIndex port,
                                      MsgClass cls) const {
  if (config_.per_vc)
    return oracle_.vc_occupancy(router, port,
                                config_.sensed_vc[static_cast<int>(cls)],
                                config_.min_only);
  return oracle_.port_occupancy(router, port, config_.min_only);
}

void AdaptiveRouting::update(Cycle /*now*/) {
  if (df_ == nullptr) return;
  const int h = df_->params().h;
  const int classes = 1 + (config_.sensed_vc[1] != kInvalidVc ? 1 : 0);
  const int floor = kSaturationFloorPackets * packet_size_;
  for (int c = 0; c < classes; ++c) {
    const auto cls = static_cast<MsgClass>(c);
    for (RouterId r = 0; r < df_->num_routers(); ++r) {
      // Average occupancy over this router's global ports.
      int total = 0;
      const PortIndex first_global = df_->params().a - 1;
      for (int j = 0; j < h; ++j)
        total += sensed_occupancy(r, first_global + j, cls);
      const double avg = static_cast<double>(total) / h;
      for (int j = 0; j < h; ++j) {
        const int occ = sensed_occupancy(r, first_global + j, cls);
        sat_[c][static_cast<std::size_t>(r) * h + j] =
            occ >= floor &&
            static_cast<double>(occ) > kSaturationFactor * avg;
      }
    }
  }
}

bool AdaptiveRouting::saturated(RouterId router, PortIndex global_port,
                                MsgClass cls) const {
  const int j = global_port - (df_->params().a - 1);
  FLEXNET_DCHECK(j >= 0 && j < df_->params().h);
  return sat_[static_cast<int>(cls)]
             [static_cast<std::size_t>(router) * df_->params().h + j];
}

}  // namespace flexnet
