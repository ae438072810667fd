#include "traffic/traffic.hpp"

#include "scenario/registry.hpp"

#include <stdexcept>

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

std::unique_ptr<TrafficPattern> make_pattern(const std::string& name,
                                             const Topology& topo,
                                             int adversarial_offset) {
  // Registry-backed: an unknown name enumerates the registered patterns.
  SimConfig cfg;
  cfg.traffic = name;
  cfg.adversarial_offset = adversarial_offset;
  return traffic_registry().at(name).make.pattern(topo, cfg);
}

FLEXNET_REGISTER_TRAFFIC({
    "uniform",
    "UN: uniform-random destinations, Bernoulli injection",
    TrafficFactories{
        [](const Topology& topo, const SimConfig&)
            -> std::unique_ptr<TrafficPattern> {
          return std::make_unique<UniformPattern>(topo.num_nodes());
        },
        [](const SimConfig& cfg, double request_load)
            -> InjectionProcess {
          return InjectionProcess::bernoulli(request_load,
                                             cfg.effective_packet_phits());
        }},
    nullptr})

FLEXNET_REGISTER_TRAFFIC({
    "bursty",
    "BURSTY-UN: uniform destinations held per burst, ON/OFF Markov "
    "injection",
    TrafficFactories{
        [](const Topology& topo, const SimConfig&)
            -> std::unique_ptr<TrafficPattern> {
          return std::make_unique<UniformPattern>(topo.num_nodes());
        },
        [](const SimConfig& cfg, double request_load)
            -> InjectionProcess {
          return InjectionProcess::on_off(
              request_load, cfg.effective_packet_phits(), cfg.burst_length);
        }},
    [](const SimConfig& cfg) {
      if (!(cfg.burst_length >= 1.0))  // NaN fails this too
        throw std::invalid_argument(
            "traffic 'bursty' needs burst_length >= 1 packet");
    }})

FLEXNET_REGISTER_TRAFFIC({
    "adversarial",
    "ADV+k: random node of the group k groups after the source's",
    TrafficFactories{
        [](const Topology& topo, const SimConfig& cfg)
            -> std::unique_ptr<TrafficPattern> {
          return std::make_unique<AdversarialPattern>(
              topo, cfg.adversarial_offset);
        },
        [](const SimConfig& cfg, double request_load)
            -> InjectionProcess {
          return InjectionProcess::bernoulli(request_load,
                                             cfg.effective_packet_phits());
        }},
    [](const SimConfig& cfg) {
      if (cfg.adversarial_offset < 1)
        throw std::invalid_argument(
            "traffic 'adversarial' needs adv_offset >= 1");
    }})

}  // namespace flexnet
