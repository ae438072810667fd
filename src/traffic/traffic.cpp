#include "traffic/traffic.hpp"

#include "common/check.hpp"

namespace flexnet {

NodeId UniformPattern::destination(NodeId src, Rng& rng) const {
  // Uniform over the other num_nodes - 1 nodes.
  const auto pick = static_cast<NodeId>(
      rng.next_below(static_cast<std::uint64_t>(num_nodes_ - 1)));
  return pick >= src ? pick + 1 : pick;
}

NodeId AdversarialPattern::destination(NodeId src, Rng& rng) const {
  const GroupId group = topo_.group_of(topo_.router_of_node(src));
  const GroupId target = (group + offset_) % topo_.num_groups();
  // Nodes of a group are contiguous: routers of group `target` hold node ids
  // [first_router * p, (first_router + routers_per_group) * p).
  const int routers_per_group = topo_.num_routers() / topo_.num_groups();
  const NodeId first =
      topo_.first_node_of_router(target * routers_per_group);
  const int span = routers_per_group * topo_.concentration();
  return first + static_cast<NodeId>(
                     rng.next_below(static_cast<std::uint64_t>(span)));
}

InjectionProcess InjectionProcess::bernoulli(double load, int packet_size) {
  return InjectionProcess(false, packet_size, load / packet_size, 0.0);
}

InjectionProcess InjectionProcess::on_off(double load, int packet_size,
                                          double mean_burst_packets) {
  FLEXNET_CHECK(load > 0.0 && load <= 1.0);
  FLEXNET_CHECK(mean_burst_packets >= 1.0);
  // Load = ON fraction: mean ON cycles = burst * size; solve for mean OFF.
  const double mean_on = mean_burst_packets * packet_size;
  const double mean_off = mean_on * (1.0 - load) / load;
  return InjectionProcess(true, packet_size,
                          mean_off <= 0.0 ? 1.0 : 1.0 / mean_off,
                          1.0 / mean_burst_packets);
}

}  // namespace flexnet
