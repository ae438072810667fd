// Canonical Dragonfly topology (Kim et al., ISCA 2008), the paper's
// evaluation network (SIV, Table V).
//
// Parameters: p nodes per router, a routers per group, h global links per
// router. Groups are complete graphs of a routers (a-1 local ports each);
// the global topology is a complete graph of g = a*h + 1 groups wired with
// the standard palmtree arrangement. The paper's system is (p=8, a=16, h=8):
// 129 groups, 2064 routers, 16512 nodes.
//
// Minimal paths are l-g-l: at most one local hop in the source group to the
// router owning the global link toward the destination group, the global
// hop, and at most one local hop inside the destination group (diameter 3).
#pragma once

#include "topology/topology.hpp"

namespace flexnet {

struct DragonflyParams {
  int p = 2;  ///< nodes per router (concentration)
  int a = 4;  ///< routers per group
  int h = 2;  ///< global links per router

  int num_groups() const { return a * h + 1; }
  int num_routers() const { return num_groups() * a; }
  int num_nodes() const { return num_routers() * p; }

  /// The paper's Table V system: 31-port routers, 129 groups, 16512 nodes.
  static DragonflyParams paper_scale() { return {8, 16, 8}; }
};

class Dragonfly final : public Topology {
 public:
  static constexpr TopologyShape kShape{/*typed=*/true, /*diameter=*/3};

  explicit Dragonfly(const DragonflyParams& params);

  std::string name() const override;
  // Palmtree wiring gives every (router, destination) pair a single
  // minimal first hop — the routing tie-break RNG is never consumed.
  bool min_port_unique() const override { return true; }

  const DragonflyParams& params() const { return params_; }

  GroupId group_of(RouterId r) const override { return r / params_.a; }
  int num_groups() const override { return params_.num_groups(); }
  int router_in_group(RouterId r) const { return r % params_.a; }
  RouterId router_id(GroupId g, int index) const {
    return g * params_.a + index;
  }

  /// Local port on `from` toward another router of the same group.
  PortIndex local_port_to(RouterId from, RouterId to) const;

  /// Global channel index k in [0, a*h) of the link from group `g` to group
  /// `to`; the palmtree arrangement connects channel k of g to group
  /// (g + k + 1) mod G.
  int global_channel(GroupId g, GroupId to) const;

  /// Router owning global channel k of a group, and the router-local global
  /// port index.
  int channel_router_index(int channel) const { return channel / params_.h; }
  PortIndex channel_port(int channel) const {
    return params_.a - 1 + channel % params_.h;
  }

  /// Router (and its global port) that owns the global link from the group
  /// of `from` toward `dst_group`. Used by minimal routing and by
  /// Piggyback's remote-congestion lookup.
  RouterId global_link_owner(RouterId from, GroupId dst_group,
                             PortIndex& port) const;

  PortIndex min_next_port(RouterId from, RouterId to,
                          Rng* rng = nullptr) const override;
  HopSeq min_hop_types(RouterId from, RouterId to) const override;

 private:
  DragonflyParams params_;
};

}  // namespace flexnet
