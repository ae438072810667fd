#include "scenario/registry.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "buffers/credit_ledger.hpp"
#include "buffers/packet.hpp"
#include "core/baseline_policy.hpp"
#include "core/flexvc_policy.hpp"
#include "core/vc_arrangement.hpp"
#include "core/vc_template.hpp"
#include "routing/adaptive.hpp"
#include "routing/minimal.hpp"
#include "routing/valiant.hpp"
#include "topology/dragonfly.hpp"
#include "topology/slimfly.hpp"

namespace flexnet {

namespace {

/// Stage 1 of the allocator walks one 64-bit word of armed input ports
/// (network + injection) per router.
void check_router_width(const std::string& topology, std::int64_t inputs) {
  if (inputs > 64)
    throw std::invalid_argument(
        "topology " + topology + " has routers with " +
        std::to_string(inputs) +
        " input ports (network + injection); at most 64 are supported");
}

/// UGAL, PAR and PB: one source-adaptive routing under three rules.
RoutingFactory adaptive_factory(AdaptiveRule rule,
                                CanonicalRouting (*typed)(),
                                CanonicalRouting (*untyped)()) {
  return {[rule](const RoutingContext& ctx)
              -> std::unique_ptr<RoutingAlgorithm> {
            AdaptiveConfig config;
            config.threshold_packets = ctx.config.adaptive_threshold;
            config.min_only = ctx.config.mincred;
            config.per_vc = ctx.config.pb_per_vc;
            // Minimal traffic uses the first global VC of its class segment:
            // the VC PB's per-VC variant senses.
            if (ctx.arrangement.has_reply())
              config.sensed_vc[1] =
                  ctx.arrangement.count(MsgClass::kRequest, LinkType::kGlobal);
            return std::make_unique<AdaptiveRouting>(
                ctx.topo, ctx.oracle, ctx.config.packet_size, rule, config);
          },
          typed, untyped};
}

}  // namespace

// One table per family. A malformed table throws RegistryError from the
// first lookup, and the static's initialization is retried on the next.

const Registry<TopologyFactory>& topology_registry() {
  static const Registry<TopologyFactory> registry("topology", {
      {"dragonfly",
       "Dragonfly (p,a,h) with palmtree global wiring; typed l/g links — the "
       "paper's evaluation network",
       {[](const SimConfig& cfg) -> std::unique_ptr<Topology> {
          return std::make_unique<Dragonfly>(cfg.dragonfly);
        },
        Dragonfly::kShape},
       [](const SimConfig& cfg) {
         const DragonflyParams& d = cfg.dragonfly;
         if (d.p < 1 || d.a < 2 || d.h < 1)
           throw std::invalid_argument(
               "topology 'dragonfly' needs df_p >= 1, df_a >= 2, df_h >= 1");
         check_router_width("dragonfly(p=" + std::to_string(d.p) +
                                ",a=" + std::to_string(d.a) +
                                ",h=" + std::to_string(d.h) + ")",
                            std::int64_t{d.p} + (d.a - 1) + d.h);
       }},
      {"slimfly",
       "Slim Fly MMS(q) diameter-2 network, untyped links (Besta & Hoefler)",
       {[](const SimConfig& cfg) -> std::unique_ptr<Topology> {
          return std::make_unique<SlimFly>(cfg.slimfly);
        },
        SlimFly::kShape},
       [](const SimConfig& cfg) {
         const SlimFlyParams& s = cfg.slimfly;
         if (s.p < 1 || !is_prime(s.q) || s.q % 4 != 1 || s.q > 37)
           throw std::invalid_argument(
               "topology 'slimfly' needs sf_p >= 1 and a prime sf_q = 1 mod 4 "
               "with sf_q <= 37");
         check_router_width("slimfly(p=" + std::to_string(s.p) +
                                ",q=" + std::to_string(s.q) + ")",
                            std::int64_t{s.p} + (3 * s.q - 1) / 2);
       }},
  });
  return registry;
}

const Registry<VcPolicyFactory>& vc_policy_registry() {
  static const Registry<VcPolicyFactory> registry("policy", {
      {"baseline",
       "distance-based VC management: one fixed VC per hop index",
       [](const VcArrangement& arrangement) -> std::unique_ptr<VcPolicy> {
         return std::make_unique<BaselinePolicy>(arrangement);
       }},
      {"flexvc",
       "FlexVC: any VC admissible that preserves a safe escape embedding "
       "(paper SIII)",
       [](const VcArrangement& arrangement) -> std::unique_ptr<VcPolicy> {
         return std::make_unique<FlexVcPolicy>(arrangement);
       }},
  });
  return registry;
}

const Registry<RoutingFactory>& routing_registry() {
  static const Registry<RoutingFactory> registry("routing", {
      {"min",
       "minimal routing (l-g-l on Dragonfly, direct on diameter-2 networks)",
       {[](const RoutingContext& ctx) -> std::unique_ptr<RoutingAlgorithm> {
          return std::make_unique<MinimalRouting>(ctx.topo);
        },
        &dragonfly_min, &generic_d2_min}},
      {"val",
       "Valiant: nonminimal oblivious via a uniform-random intermediate "
       "router",
       {[](const RoutingContext& ctx) -> std::unique_ptr<RoutingAlgorithm> {
          return std::make_unique<ValiantRouting>(ctx.topo);
        },
        &dragonfly_valiant, &generic_d2_valiant}},
      {"ugal",
       "UGAL-L: source-adaptive MIN vs VAL by local credit occupancy",
       adaptive_factory(AdaptiveRule::kUgal, &dragonfly_valiant,
                        &generic_d2_valiant)},
      {"par",
       "PAR: progressive adaptive — re-decides MIN vs VAL while in the "
       "source group",
       adaptive_factory(AdaptiveRule::kPar, &dragonfly_par, &generic_d2_par)},
      {"pb",
       "Piggyback: UGAL-L plus broadcast saturation bits (Dragonfly only)",
       adaptive_factory(AdaptiveRule::kPiggyback, &dragonfly_valiant,
                        &generic_d2_valiant),
       [](const SimConfig& cfg) {
         if (cfg.topology != "dragonfly")
           throw std::invalid_argument(
               "routing 'pb' senses per-group global channels and requires "
               "topology=dragonfly");
       }},
  });
  return registry;
}

const Registry<VcSelection>& vc_selection_registry() {
  static const Registry<VcSelection> registry("vc_selection", {
      {"jsq",
       "join the shortest queue: most free phits downstream (paper's best)",
       VcSelection::kJsq},
      {"highest", "highest admissible template position",
       VcSelection::kHighest},
      {"lowest",
       "lowest admissible template position (paper's consistent worst)",
       VcSelection::kLowest},
      {"random", "uniform among the feasible candidates",
       VcSelection::kRandom},
  });
  return registry;
}

const Registry<TrafficFactories>& traffic_registry() {
  static const Registry<TrafficFactories> registry("traffic", {
      {"uniform",
       "UN: uniform-random destinations, Bernoulli injection",
       {[](const Topology& topo, const SimConfig&)
            -> std::unique_ptr<TrafficPattern> {
          return std::make_unique<UniformPattern>(topo.num_nodes());
        },
        [](const SimConfig& cfg, double request_load) -> InjectionProcess {
          return InjectionProcess::bernoulli(request_load, cfg.packet_size);
        }}},
      {"bursty",
       "BURSTY-UN: uniform destinations held per burst, ON/OFF Markov "
       "injection",
       {[](const Topology& topo, const SimConfig&)
            -> std::unique_ptr<TrafficPattern> {
          return std::make_unique<UniformPattern>(topo.num_nodes());
        },
        [](const SimConfig& cfg, double request_load) -> InjectionProcess {
          return InjectionProcess::on_off(request_load, cfg.packet_size,
                                          cfg.burst_length);
        }},
       [](const SimConfig& cfg) {
         if (!(cfg.burst_length >= 1.0))  // NaN fails this too
           throw std::invalid_argument(
               "traffic 'bursty' needs burst_length >= 1 packet");
       }},
      {"adversarial",
       "ADV+k: random node of the group k groups after the source's",
       {[](const Topology& topo, const SimConfig& cfg)
            -> std::unique_ptr<TrafficPattern> {
          return std::make_unique<AdversarialPattern>(
              topo, cfg.adversarial_offset);
        },
        [](const SimConfig& cfg, double request_load) -> InjectionProcess {
          return InjectionProcess::bernoulli(request_load, cfg.packet_size);
        }},
       [](const SimConfig& cfg) {
         if (cfg.adversarial_offset < 1)
           throw std::invalid_argument(
               "traffic 'adversarial' needs adv_offset >= 1");
       }},
  });
  return registry;
}

const Registry<BufferOrg>& buffer_org_registry() {
  static const Registry<BufferOrg> registry("buffer_org", {
      {"static", "statically partitioned per-VC FIFOs", BufferOrg::kStatic},
      {"damq", "DAMQ: shared pool with a per-VC private reservation",
       BufferOrg::kDamq,
       [](const SimConfig& cfg) {
         // Written so NaN, which compares false both ways, is rejected too.
         if (!(cfg.damq_private_fraction >= 0.0 &&
               cfg.damq_private_fraction <= 1.0))
           throw std::invalid_argument(
               "buffer_org 'damq' needs damq_private_fraction in [0, 1]");
       }},
  });
  return registry;
}

const Registry<FlowControl>& flow_control_registry() {
  static const Registry<FlowControl> registry("flow_control", {
      {"packet",
       "whole-packet granularity: one link event and one credit claim per "
       "packet",
       FlowControl::kPacket},
      {"wormhole",
       "flit streaming; body flits claim downstream space one phit at a "
       "time",
       FlowControl::kWormhole},
      {"vct",
       "virtual cut-through: flit streaming with whole-packet buffer claims",
       FlowControl::kVct},
  });
  return registry;
}

const Registry<BufferMgmt>& buffer_mgmt_registry() {
  static const Registry<BufferMgmt> registry("buffer_mgmt", {
      {"credit", "exact phit-granular credit counting per VC",
       BufferMgmt::kCredit},
      {"on_off", "on/off backpressure: port-level stop/go bit with hysteresis",
       BufferMgmt::kOnOff},
  });
  return registry;
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
  // garbage or trip an internal check.
  require_at_least("speedup", cfg.speedup, 1);
  require_at_least("alloc_iters", cfg.alloc_iters, 1);
  require_at_least("packet_size", cfg.packet_size, 1);
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
  // Ceilings of the engine's narrow records (sim/network.hpp): credits and
  // pipeline slots carry a packet's phits in 16 bits, the armed-slot mask
  // holds one bit per input VC in a word, a credit ledger counts a port's
  // phits in 16 bits, and link and pipeline events stamp their cycle in 32.
  const auto require_at_most = [](const std::string& key, std::int64_t value,
                                  std::int64_t ceiling) {
    if (value > ceiling)
      throw std::invalid_argument(key + " must be <= " +
                                  std::to_string(ceiling) + " (got " +
                                  std::to_string(value) + ")");
  };
  require_at_most("packet_size", cfg.packet_size, kMaxPacketPhits);
  require_at_most("injection_vcs", cfg.injection_vcs, 64);
  for (const LinkType type : {LinkType::kLocal, LinkType::kGlobal}) {
    if (type == LinkType::kGlobal && !arrangement.typed) continue;
    const bool global = type == LinkType::kGlobal;
    const std::string kind = global ? "global" : "local";
    const int port_cap =
        global ? cfg.global_port_capacity : cfg.local_port_capacity;
    if (port_cap > 0) {
      require_at_most(kind + "_port_capacity", port_cap,
                      CreditLedger::kMaxPortPhits);
      continue;
    }
    const int vcs = arrangement.vcs_per_port(type);
    const int per_vc =
        global ? cfg.global_buffer_per_vc : cfg.local_buffer_per_vc;
    if (std::int64_t{per_vc} * vcs > CreditLedger::kMaxPortPhits)
      throw std::invalid_argument(
          kind + "_buffer " + std::to_string(per_vc) + " x " +
          std::to_string(vcs) + " VCs makes a " + kind + " port of " +
          std::to_string(std::int64_t{per_vc} * vcs) + " phits; at most " +
          std::to_string(CreditLedger::kMaxPortPhits) + " are supported");
  }
  const Cycle last_cycle = cfg.warmup + cfg.measure - 1;
  if (cfg.warmup > kMaxStamp || cfg.measure > kMaxStamp ||
      last_cycle + stamp_horizon(cfg) > kMaxStamp)
    throw std::invalid_argument(
        "warmup + measure must be <= " +
        std::to_string(kMaxStamp + 1 - stamp_horizon(cfg)) +
        " cycles with these link and pipeline latencies (got " +
        std::to_string(cfg.warmup) + " + " + std::to_string(cfg.measure) +
        ")");
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
  const HopSeq min_ref =
      routing_registry().at("min").make.reference_path(shape);
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
    if (tmpl.embed_safe(min_ref, kInjectionPosition, cls) < 0)
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
