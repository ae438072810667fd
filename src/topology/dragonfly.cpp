#include "topology/dragonfly.hpp"

#include "common/check.hpp"

namespace flexnet {

Dragonfly::Dragonfly(const DragonflyParams& params)
    : Topology(params.p, kShape), params_(params) {
  FLEXNET_CHECK_MSG(params_.p >= 1 && params_.a >= 2 && params_.h >= 1,
                    "dragonfly needs p>=1, a>=2, h>=1");
  const int groups = params_.num_groups();
  const int a = params_.a;
  const int h = params_.h;
  // Port layout per router: [0, a-1) local, [a-1, a-1+h) global.
  resize_routers(params_.num_routers(), a - 1 + h);

  for (GroupId g = 0; g < groups; ++g) {
    // Local complete graph: port to router j skips the self slot.
    for (int i = 0; i < a; ++i) {
      for (int j = 0; j < a; ++j) {
        if (i == j) continue;
        const PortIndex pi = j < i ? j : j - 1;
        const PortIndex pj = i < j ? i : i - 1;
        set_port(router_id(g, i), pi,
                 PortDesc{LinkType::kLocal, router_id(g, j), pj});
      }
    }
    // Palmtree global arrangement: channel k of group g reaches group
    // (g + k + 1) mod G and lands on that group's channel a*h - 1 - k.
    for (int k = 0; k < a * h; ++k) {
      const GroupId peer = (g + k + 1) % groups;
      const int peer_channel = a * h - 1 - k;
      set_port(router_id(g, channel_router_index(k)), channel_port(k),
               PortDesc{LinkType::kGlobal,
                        router_id(peer, channel_router_index(peer_channel)),
                        channel_port(peer_channel)});
    }
  }
  validate_wiring();
}

std::string Dragonfly::name() const {
  return "dragonfly(p=" + std::to_string(params_.p) +
         ",a=" + std::to_string(params_.a) + ",h=" + std::to_string(params_.h) +
         ")";
}

PortIndex Dragonfly::local_port_to(RouterId from, RouterId to) const {
  FLEXNET_DCHECK(group_of(from) == group_of(to) && from != to);
  const int i = router_in_group(from);
  const int j = router_in_group(to);
  return j < i ? j : j - 1;
}

int Dragonfly::global_channel(GroupId g, GroupId to) const {
  FLEXNET_DCHECK(g != to);
  return (to - g - 1 + num_groups()) % num_groups();
}

RouterId Dragonfly::global_link_owner(RouterId from, GroupId dst_group,
                                      PortIndex& port) const {
  const int channel = global_channel(group_of(from), dst_group);
  port = channel_port(channel);
  return router_id(group_of(from), channel_router_index(channel));
}

PortIndex Dragonfly::min_next_port(RouterId from, RouterId to,
                                   Rng* /*rng*/) const {
  FLEXNET_DCHECK(from != to);
  const GroupId gf = group_of(from);
  const GroupId gt = group_of(to);
  if (gf == gt) return local_port_to(from, to);
  PortIndex global_port = kInvalidPort;
  const RouterId owner = global_link_owner(from, gt, global_port);
  if (owner == from) return global_port;
  return local_port_to(from, owner);
}

HopSeq Dragonfly::min_hop_types(RouterId from, RouterId to) const {
  HopSeq seq;
  if (from == to) return seq;
  const GroupId gf = group_of(from);
  const GroupId gt = group_of(to);
  if (gf == gt) {
    seq.push_back(LinkType::kLocal);
    return seq;
  }
  // Palmtree: channel k of the source group lands on channel a*h - 1 - k
  // of the destination group, so the entry router follows without a
  // wiring lookup.
  const int channel = global_channel(gf, gt);
  if (router_id(gf, channel_router_index(channel)) != from)
    seq.push_back(LinkType::kLocal);
  seq.push_back(LinkType::kGlobal);
  const RouterId entry = router_id(
      gt, channel_router_index(params_.a * params_.h - 1 - channel));
  if (entry != to) seq.push_back(LinkType::kLocal);
  return seq;
}

}  // namespace flexnet
