#include "scenario/registry.hpp"

#include <stdexcept>
#include <string>

#include "buffers/credit_ledger.hpp"
#include "core/vc_arrangement.hpp"

namespace flexnet {

// Leaky function-local singletons: constructed on first use (safe during
// the static initialization of the registrar objects), never destroyed
// (so no registrar can outlive its registry during teardown).
Registry<TopologyFactory>& topology_registry() {
  static auto* r = new Registry<TopologyFactory>("topology");
  return *r;
}

Registry<VcPolicyFactory>& vc_policy_registry() {
  static auto* r = new Registry<VcPolicyFactory>("policy");
  return *r;
}

Registry<RoutingFactory>& routing_registry() {
  static auto* r = new Registry<RoutingFactory>("routing");
  return *r;
}

Registry<VcSelectionFactory>& vc_selection_registry() {
  static auto* r = new Registry<VcSelectionFactory>("vc_selection");
  return *r;
}

Registry<TrafficFactories>& traffic_registry() {
  static auto* r = new Registry<TrafficFactories>("traffic");
  return *r;
}

Registry<BufferOrgFactory>& buffer_org_registry() {
  static auto* r = new Registry<BufferOrgFactory>("buffer_org");
  return *r;
}

Registry<FlowControlFactory>& flow_control_registry() {
  static auto* r = new Registry<FlowControlFactory>("flow_control");
  return *r;
}

Registry<BufferMgmtFactory>& buffer_mgmt_registry() {
  static auto* r = new Registry<BufferMgmtFactory>("buffer_mgmt");
  return *r;
}

void validate_config(const SimConfig& cfg) {
  const auto check = [&cfg](const auto& registry, const std::string& name) {
    const auto& entry = registry.at(name);  // throws with the name list
    if (entry.validate) entry.validate(cfg);
  };
  check(topology_registry(), cfg.topology);
  check(vc_policy_registry(), cfg.policy);
  check(routing_registry(), cfg.routing);
  check(vc_selection_registry(), cfg.vc_selection);
  check(traffic_registry(), cfg.traffic);
  check(buffer_org_registry(), cfg.buffer_org);
  check(flow_control_registry(), cfg.flow_control);
  check(buffer_mgmt_registry(), cfg.buffer_mgmt);
  // The arrangement string is component-like config too: parse it now so a
  // malformed "vcs" fails with its parser's message, not mid-construction.
  const VcArrangement arrangement = VcArrangement::parse(cfg.vcs);
  for (const LinkType type : {LinkType::kLocal, LinkType::kGlobal}) {
    const int vcs = arrangement.vcs_per_port(type);
    if (vcs > CreditLedger::kMaxVcs)
      throw std::invalid_argument(
          "vcs '" + cfg.vcs + "' puts " + std::to_string(vcs) +
          " VCs on a network port; at most " +
          std::to_string(CreditLedger::kMaxVcs) + " are supported");
  }
  // Timing: the engine's event wheels file every flit and credit at least
  // one cycle after the phase that pushes it, so links take >= 1 cycle; a
  // zero-cycle router pipeline is allowed (sent the cycle it is granted).
  const auto require_at_least = [](const char* key, int value, int floor) {
    if (value < floor)
      throw std::invalid_argument(std::string(key) + " must be >= " +
                                  std::to_string(floor) + " (got " +
                                  std::to_string(value) + ")");
  };
  require_at_least("local_latency", cfg.local_latency, 1);
  require_at_least("global_latency", cfg.global_latency, 1);
  require_at_least("pipeline_latency", cfg.pipeline_latency, 0);
}

std::vector<RegistryListing> list_registries() {
  std::vector<RegistryListing> out;
  const auto snapshot = [&out](const auto& registry) {
    RegistryListing listing;
    listing.kind = registry.kind();
    for (const auto& e : registry.entries())
      listing.components.push_back(ComponentInfo{e.name, e.description});
    out.push_back(std::move(listing));
  };
  snapshot(topology_registry());
  snapshot(routing_registry());
  snapshot(vc_policy_registry());
  snapshot(vc_selection_registry());
  snapshot(traffic_registry());
  snapshot(buffer_org_registry());
  snapshot(flow_control_registry());
  snapshot(buffer_mgmt_registry());
  return out;
}

}  // namespace flexnet
