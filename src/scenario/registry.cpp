#include "scenario/registry.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "buffers/credit_ledger.hpp"
#include "core/vc_arrangement.hpp"
#include "core/vc_template.hpp"
#include "routing/minimal.hpp"

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
  const auto require_at_least = [](const char* key, std::int64_t value,
                                   std::int64_t floor) {
    if (value < floor)
      throw std::invalid_argument(std::string(key) + " must be >= " +
                                  std::to_string(floor) + " (got " +
                                  std::to_string(value) + ")");
  };
  // Timing: the engine's event wheels file every flit and credit at least
  // one cycle after the phase that pushes it, so links take >= 1 cycle; a
  // zero-cycle router pipeline is allowed (sent the cycle it is granted).
  require_at_least("local_latency", cfg.local_latency, 1);
  require_at_least("global_latency", cfg.global_latency, 1);
  require_at_least("pipeline_latency", cfg.pipeline_latency, 0);
  // Microarchitecture and sizes: a zero here either moves no packet at all
  // (speedup, alloc_iters, output_buffer), makes every packet weightless
  // (packet_size) or leaves a buffer with no room, so the run would report
  // garbage or trip an internal check. phits_per_packet = 0 inherits
  // packet_size.
  require_at_least("speedup", cfg.speedup, 1);
  require_at_least("alloc_iters", cfg.alloc_iters, 1);
  require_at_least("packet_size", cfg.packet_size, 1);
  require_at_least("phits_per_packet", cfg.phits_per_packet, 0);
  require_at_least("output_buffer", cfg.output_buffer, 1);
  require_at_least("injection_vcs", cfg.injection_vcs, 1);
  require_at_least("local_buffer", cfg.local_buffer_per_vc, 1);
  require_at_least("global_buffer", cfg.global_buffer_per_vc, 1);
  require_at_least("injection_buffer", cfg.injection_buffer_per_vc, 1);
  require_at_least("watchdog", cfg.watchdog, 1);
  // Run window: an empty measurement window reports zero accepted load on
  // every row, and a negative warmup starts measuring a cold network.
  require_at_least("warmup", cfg.warmup, 0);
  require_at_least("measure", cfg.measure, 1);
  if (cfg.sim_domains != 1)
    throw std::invalid_argument(
        "sim_domains must be 1 (got " + std::to_string(cfg.sim_domains) +
        "): a simulation runs on one thread; run jobs in parallel with "
        "--jobs instead");

  // The arrangement must suit the topology, the traffic and the routing.
  const TopologyShape& shape = topology_registry().at(cfg.topology).make.shape;
  if (arrangement.typed != shape.typed)
    throw std::invalid_argument(
        "typed/untyped VC arrangement does not match topology");
  if (arrangement.has_reply() != cfg.reactive)
    throw std::invalid_argument(
        "request-reply arrangements require reactive traffic and vice versa");
  // Under the baseline the routing's full reference path must embed;
  // FlexVC also accepts opportunistic arrangements (Tables I-IV) as long
  // as a minimal escape fits.
  const HopSeq ref =
      routing_registry().at(cfg.routing).make.reference_path(shape);
  const VcTemplate tmpl(arrangement);
  for (int c = 0; c < (arrangement.has_reply() ? 2 : 1); ++c) {
    const auto cls = static_cast<MsgClass>(c);
    const bool safe =
        tmpl.embed_safe(ref, kInjectionPosition, cls) >= 0 ||
        (cls == MsgClass::kReply &&
         tmpl.embed(ref, kInjectionPosition, tmpl.num_positions()) >= 0);
    if (safe) continue;
    if (cfg.policy == "baseline")
      throw std::invalid_argument(
          "baseline VC management cannot support this routing with the "
          "configured arrangement");
    if (tmpl.embed_safe(MinimalRouting::reference_path(shape),
                        kInjectionPosition, cls) < 0)
      throw std::invalid_argument(
          "arrangement cannot even hold minimal paths");
  }
  if (cfg.reactive && cfg.injection_vcs < 2)
    throw std::invalid_argument("reactive traffic needs >= 2 injection VCs");
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
