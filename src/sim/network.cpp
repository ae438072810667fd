#include "sim/network.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "core/admissibility.hpp"
#include "routing/minimal.hpp"
#include "scenario/registry.hpp"
#include "telemetry/trace.hpp"

namespace flexnet {

Network::Network(const SimConfig& config) : config_(config) {
  // Registry-driven construction: unknown component names fail here with
  // an error enumerating the registered alternatives, and each component's
  // validate hook rejects configurations it cannot serve before any
  // simulation state is built.
  validate_config(config_);
  topo_ = topology_registry().at(config_.topology).make(config_);
  // Stage 1 of the allocator walks one 64-bit word of armed input ports
  // per router.
  const int inputs = topo_->max_network_ports() + topo_->concentration();
  if (inputs > 64)
    throw std::invalid_argument(
        "topology " + topo_->name() + " has routers with " +
        std::to_string(inputs) +
        " input ports (network + injection); at most 64 are supported");

  const VcArrangement arrangement = VcArrangement::parse(config_.vcs);
  FLEXNET_CHECK_MSG(arrangement.typed == topo_->typed(),
                    "typed/untyped VC arrangement does not match topology");
  FLEXNET_CHECK_MSG(arrangement.has_reply() == config_.reactive,
                    "request-reply arrangements require reactive traffic "
                    "and vice versa");
  policy_ = vc_policy_registry().at(config_.policy).make(arrangement);
  selection_ = vc_selection_registry().at(config_.vc_selection).make();
  routing_ = routing_registry()
                 .at(config_.routing)
                 .make(RoutingContext{*topo_, *this, config_, arrangement});

  // Validate that the arrangement supports the routing mechanism: under the
  // baseline the full reference must embed; FlexVC also accepts
  // opportunistic arrangements (Tables I-IV).
  {
    const HopSeq ref = routing_->reference_path();
    const VcTemplate& tmpl = policy_->tmpl();
    for (int c = 0; c < (arrangement.has_reply() ? 2 : 1); ++c) {
      const auto cls = static_cast<MsgClass>(c);
      const bool safe =
          tmpl.embed_safe(ref, kInjectionPosition, cls) >= 0 ||
          (cls == MsgClass::kReply &&
           tmpl.embed(ref, kInjectionPosition, tmpl.num_positions()) >= 0);
      if (config_.policy == "baseline") {
        FLEXNET_CHECK_MSG(safe,
                          "baseline VC management cannot support this "
                          "routing with the configured arrangement");
      } else if (!safe) {
        // FlexVC: a minimal escape must fit so opportunistic routing works.
        const HopSeq min_ref = MinimalRouting(*topo_).reference_path();
        FLEXNET_CHECK_MSG(tmpl.embed_safe(min_ref, kInjectionPosition, cls) >= 0,
                          "arrangement cannot even hold minimal paths");
      }
    }
  }

  FLEXNET_CHECK_MSG(!config_.reactive || config_.injection_vcs >= 2,
                    "reactive traffic needs >= 2 injection VCs");

  build();
}

// The containers free into a dying arena: skip its recycling.
Network::~Network() { arena_.retire(); }

int Network::num_outputs(RouterId r) const {
  return topo_->num_network_ports(r) + topo_->concentration() * kNumMsgClasses;
}

int Network::eject_output_index(RouterId r, int node_local,
                                MsgClass cls) const {
  return net_ports(r) + node_local * kNumMsgClasses + static_cast<int>(cls);
}

void Network::build() {
  const VcTemplate& tmpl = policy_->tmpl();
  Rng base(config_.seed);

  {
    const char* env = std::getenv("FLEXNET_DEBUG_STUCK");
    debug_stuck_ = env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
    record_routes_ = debug_stuck_ || trace_ != nullptr;
  }

  const int num_routers = topo_->num_routers();
  const int inj_ports = topo_->concentration();
  const BufferOrg org = buffer_org_registry().at(config_.buffer_org).make();
  flow_control_ = flow_control_registry().at(config_.flow_control).make();
  buffer_mgmt_ = buffer_mgmt_registry().at(config_.buffer_mgmt).make();
  flit_ = is_flit_level(flow_control_);

  // Offset tables (with sentinels) first, then one flat reserve per array:
  // the whole router state is a handful of contiguous allocations.
  link_index_.resize(static_cast<std::size_t>(num_routers) + 1);
  in_index_.resize(static_cast<std::size_t>(num_routers) + 1);
  output_index_.resize(static_cast<std::size_t>(num_routers) + 1);
  int total_links = 0;
  int total_inputs = 0;
  int total_outputs = 0;
  for (RouterId r = 0; r < num_routers; ++r) {
    link_index_[static_cast<std::size_t>(r)] = total_links;
    in_index_[static_cast<std::size_t>(r)] = total_inputs;
    output_index_[static_cast<std::size_t>(r)] = total_outputs;
    const int ports = topo_->num_network_ports(r);
    total_links += ports;
    total_inputs += ports + inj_ports;
    total_outputs += num_outputs(r);
  }
  FLEXNET_CHECK(total_links == topo_->total_network_ports());
  link_index_[static_cast<std::size_t>(num_routers)] = total_links;
  in_index_[static_cast<std::size_t>(num_routers)] = total_inputs;
  output_index_[static_cast<std::size_t>(num_routers)] = total_outputs;

  links_.resize(static_cast<std::size_t>(total_links));
  out_.reserve(static_cast<std::size_t>(total_links));
  ledger_.reserve(static_cast<std::size_t>(total_links));
  in_.reserve(static_cast<std::size_t>(total_inputs));
  in_arb_.reserve(static_cast<std::size_t>(total_inputs));
  commit_index_.reserve(static_cast<std::size_t>(total_inputs));
  out_arb_.reserve(static_cast<std::size_t>(total_outputs));
  rng_.reserve(static_cast<std::size_t>(num_routers));

  // Per-link VC counts feed the telemetry registry's shape (per-VC lanes).
  std::vector<int> link_vcs(static_cast<std::size_t>(total_links), 0);

  for (RouterId r = 0; r < num_routers; ++r) {
    rng_.push_back(base.split(static_cast<std::uint64_t>(r)));
    const int ports = topo_->num_network_ports(r);

    for (PortIndex p = 0; p < ports; ++p) {
      const PortDesc& desc = topo_->port(r, p);
      const bool global = desc.type == LinkType::kGlobal;
      const int vcs = tmpl.vcs_per_port(desc.type);
      const int per_vc =
          global ? config_.global_buffer_per_vc : config_.local_buffer_per_vc;
      const int port_cap = global ? config_.global_port_capacity
                                  : config_.local_port_capacity;
      const int total = port_cap > 0 ? port_cap : per_vc * vcs;
      const BufferGeometry geom =
          make_geometry(org, vcs, total, config_.damq_private_fraction);
      in_.emplace_back(geom.num_vcs, geom.private_per_vc, geom.shared);
      out_.emplace_back(config_.output_buffer, config_.pipeline_latency);
      ledger_.emplace_back(geom.num_vcs, geom.private_per_vc, geom.shared);
      if (buffer_mgmt_ == BufferMgmt::kOnOff) {
        // On/off hysteresis thresholds derive from the packet size: stop
        // once less than one packet of port space remains, resume at two
        // packets' worth (both capped by the port capacity so a small
        // port can still turn back on).
        const int eff = config_.effective_packet_phits();
        const int cap = ledger_.back().capacity_port();
        ledger_.back().enable_on_off(std::min(eff, cap),
                                     std::min(2 * eff, cap));
      }
      link_vcs[static_cast<std::size_t>(link_at(r, p))] = geom.num_vcs;

      DirLink& link = links_[static_cast<std::size_t>(link_at(r, p))];
      link.to = desc.neighbor;
      link.latency = global ? config_.global_latency : config_.local_latency;
    }
    for (int j = 0; j < inj_ports; ++j) {
      in_.emplace_back(config_.injection_vcs, config_.injection_buffer_per_vc);
    }

    for (int i = 0; i < ports + inj_ports; ++i) {
      const int vcs = in_[static_cast<std::size_t>(input_at(r, i))].num_vcs();
      // The armed-slot bitmask packs one bit per VC into a word.
      FLEXNET_CHECK_MSG(vcs <= 64, "at most 64 VCs per input port");
      in_arb_.emplace_back(vcs);
      commit_index_.push_back(static_cast<int>(commits_.size()));
      commits_.resize(commits_.size() + static_cast<std::size_t>(vcs));
    }
    for (int o = 0; o < num_outputs(r); ++o)
      out_arb_.emplace_back(ports + inj_ports);
  }

  // Wiring in global-input terms: each network input's upstream link
  // (the credit lane a grant there pays back), each link's receiving input.
  upstream_link_.assign(static_cast<std::size_t>(total_inputs), -1);
  for (RouterId r = 0; r < num_routers; ++r) {
    for (PortIndex p = 0; p < topo_->num_network_ports(r); ++p) {
      const PortDesc& desc = topo_->port(r, p);
      upstream_link_[static_cast<std::size_t>(input_at(r, p))] =
          link_at(desc.neighbor, desc.neighbor_port);
      links_[static_cast<std::size_t>(link_at(r, p))].to_input =
          input_at(desc.neighbor, desc.neighbor_port);
    }
  }

  nodes_ = std::make_unique<Nodes>(config_, *topo_, base, &arena_);

  // Active-set bookkeeping and hot-path scratch, sized once here (the
  // allocator never resizes anything per cycle).
  router_buffered_.assign(static_cast<std::size_t>(num_routers), 0);
  router_sends_.assign(static_cast<std::size_t>(num_routers), 0);
  if (flit_) {
    transit_.assign(static_cast<std::size_t>(total_links), TransitTail{});
    streams_.assign(static_cast<std::size_t>(total_links), LinkStream{});
  }

  // Pruned-arbitration state: everything starts disarmed/unsubscribed —
  // the first injection or delivery arms its slot.
  armed_.assign(static_cast<std::size_t>(total_inputs), 0);
  router_armed_.assign(static_cast<std::size_t>(num_routers), 0);
  wait_link_.assign(commits_.size(), -1);
  link_waiters_.assign(static_cast<std::size_t>(total_links), {});

  link_owner_.resize(static_cast<std::size_t>(total_links));
  for (RouterId r = 0; r < num_routers; ++r) {
    for (PortIndex p = 0; p < topo_->num_network_ports(r); ++p)
      link_owner_[static_cast<std::size_t>(link_at(r, p))] = r;
  }
  // Wheel horizons: a data event is due latency + 1 cycles after its send
  // and a credit latency cycles after its push; a serializer is due when
  // its head leaves the pipeline or the previous packet finishes
  // serializing (longer packets are clamped, see send_due).
  const int max_phits =
      std::max(config_.effective_packet_phits(), config_.packet_size);
  const Cycle lane_horizon =
      std::max(config_.local_latency, config_.global_latency) + 1;
  const Cycle send_horizon = std::max(config_.pipeline_latency, max_phits);
  data_wheel_.resize(static_cast<std::size_t>(total_links), lane_horizon);
  credit_wheel_.resize(static_cast<std::size_t>(total_links), lane_horizon);
  send_wheel_.resize(static_cast<std::size_t>(total_links), send_horizon);
  alloc_set_.resize(static_cast<std::size_t>(num_routers));
  int max_outputs = 0;
  for (RouterId r = 0; r < num_routers; ++r)
    max_outputs = std::max(max_outputs, num_outputs(r));
  lanes_.resize(static_cast<std::size_t>(max_outputs));
  out_matched_.assign(static_cast<std::size_t>(max_outputs), 0);

  // Ejection wake calendar: a consumption port blocks for exactly the
  // packet's phit count, so the ring only needs to span the largest
  // packet either config field can produce (plus a margin cycle).
  input_router_.resize(static_cast<std::size_t>(total_inputs));
  for (RouterId r = 0; r < num_routers; ++r) {
    for (int gi = in_index_[static_cast<std::size_t>(r)];
         gi < in_index_[static_cast<std::size_t>(r) + 1]; ++gi)
      input_router_[static_cast<std::size_t>(gi)] = r;
  }
  wake_ring_ = max_phits + 2;
  armed_inputs_.assign(static_cast<std::size_t>(num_routers), 0);
  // Blocked uncommitted heads may sleep only when re-running their VC
  // allocation is pure: draw-free routing and a selection function that
  // consumes no randomness (kRandom reservoir-samples per feasible VC).
  fresh_prune_ok_ =
      routing_->draw_free() && selection_ != VcSelection::kRandom;
  eject_wake_.assign(static_cast<std::size_t>(wake_ring_), {});

  // Telemetry: the registry is always shaped (cheap, one-time) so render()
  // and merge() work even when counting is off; updates happen only when
  // the build compiles them in AND the run enables them — by environment
  // variable here, or explicitly via set_telemetry_enabled /
  // Simulator::set_telemetry.
  telem_.configure(num_routers, link_vcs);
  {
    const char* env = std::getenv("FLEXNET_TELEMETRY");
    const bool on = env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
    set_telemetry_enabled(on);
  }
}

int Network::port_occupancy(RouterId r, PortIndex p, bool min_only) const {
  const CreditLedger& ledger = ledger_[static_cast<std::size_t>(link_at(r, p))];
  return min_only ? ledger.occupied_min_port() : ledger.occupied_port();
}

int Network::vc_occupancy(RouterId r, PortIndex p, VcIndex vc,
                          bool min_only) const {
  const CreditLedger& ledger = ledger_[static_cast<std::size_t>(link_at(r, p))];
  return min_only ? ledger.occupied_min(vc) : ledger.occupied(vc);
}

int Network::input_occupancy(RouterId r, PortIndex p, VcIndex vc) const {
  return in_[static_cast<std::size_t>(input_at(r, p))].occupancy(vc);
}

void Network::debug_dump_stuck(Cycle now, Cycle min_age) const {
  if (!debug_stuck_) return;  // opt-in: see FLEXNET_DEBUG_STUCK
  int shown = 0;
  for (RouterId r = 0; r < topo_->num_routers() && shown < 40; ++r) {
    const int inputs = num_inputs(r);
    for (PortIndex p = 0; p < inputs; ++p) {
      const InputBuffer& buf = in_[static_cast<std::size_t>(input_at(r, p))];
      for (VcIndex vc = 0; vc < buf.num_vcs(); ++vc) {
        const PacketRef href = buf.front(vc);
        if (href == kInvalidPacketRef) continue;
        const Packet& head = pool_[href];
        if (now - head.created < min_age) continue;
        std::string trace;
        if (static_cast<std::size_t>(href) < traces_.size())
          for (const std::int16_t hop : traces_[static_cast<std::size_t>(href)])
            trace += std::to_string(hop) + ">";
        // Replay the routing decision for this head.
        std::string why;
        {
          std::vector<RouteOption> opts;
          Rng rng(1);
          routing_->route(head, r, rng, opts);
          for (const auto& opt : opts) {
            why += " opt[port=" + std::to_string(opt.out_port) +
                   (opt.ejection ? "(eject)" : "") +
                   " type=" + std::string(to_string(opt.hop_type)) +
                   " intended=" + opt.intended_after.to_string() +
                   " escape=" + opt.escape_after.to_string() + ":";
            if (!opt.ejection) {
              std::vector<VcCandidate> cands;
              HopContext ctx;
              ctx.cls = head.cls;
              ctx.hop_type = opt.hop_type;
              ctx.position = head.vc_position;
              ctx.floors = {head.type_floors[0], head.type_floors[1]};
              ctx.intended_after = opt.intended_after;
              ctx.escape_after = opt.escape_after;
              policy_->candidates(ctx, cands);
              const auto& lg = ledger_[static_cast<std::size_t>(link_at(r, opt.out_port))];
              const auto& ou = out_[static_cast<std::size_t>(link_at(r, opt.out_port))];
              why += "obuf=" + std::to_string(ou.occupancy()) + "/" +
                     std::to_string(ou.capacity());
              for (const auto& c : cands)
                why += " vc" + std::to_string(c.phys) +
                       (c.safe ? "S" : "o") +
                       "free=" + std::to_string(lg.free_for(c.phys));
            }
            why += "]";
          }
        }
        std::fprintf(stderr,
                     "stuck r=%d port=%d vc=%d pos=%d cls=%d kind=%d "
                     "valiant=%d reached=%d hops=%d age=%lld src_r=%d dst_r=%d "
                     "pkts_in_vc=%d trace=%s\n",
                     r, p, vc, head.vc_position,
                     static_cast<int>(head.cls),
                     static_cast<int>(head.route_kind), head.valiant,
                     head.valiant_reached, head.hops,
                     static_cast<long long>(now - head.created),
                     topo_->router_of_node(head.src),
                     topo_->router_of_node(head.dst), buf.packets(vc),
                     (trace + why).c_str());
        if (++shown >= 40) return;
      }
    }
  }
}

void Network::trace_packet(const Packet& pkt, PacketRef ref, Cycle now) const {
  // One Chrome-trace complete event per consumed packet: ts/dur are the
  // packet's in-network lifetime in cycles (rendered as microseconds —
  // Perfetto's timeline is unit-agnostic), tid is the pool slot so spans
  // on one track never overlap (a slot holds one live packet at a time).
  std::string route;
  if (static_cast<std::size_t>(ref) < traces_.size()) {
    for (const std::int16_t hop : traces_[static_cast<std::size_t>(ref)]) {
      if (!route.empty()) route += '>';
      route += std::to_string(hop);
    }
  }
  std::ostringstream args;
  args << "{\"src\":" << pkt.src << ",\"dst\":" << pkt.dst
       << ",\"hops\":" << pkt.hops << ",\"size\":" << pkt.size
       << ",\"route\":\"" << route << "\"}";
  trace_->complete("packet", "pkt" + std::to_string(pkt.id), trace_pid_,
                   static_cast<int>(ref), static_cast<double>(pkt.injected),
                   static_cast<double>(now - pkt.injected), args.str());
}

void Network::step(Cycle now) {
  FLEXNET_TELEM(if (telem_.enabled()) {
    telem_.on_step(static_cast<std::int64_t>(data_wheel_.size() +
                                             credit_wheel_.size()),
                   static_cast<std::int64_t>(alloc_set_.size()),
                   send_routers_, pool_.live());
    phases_.start();
  });
  deliver_data(now);
  lap(StepPhase::kDeliverData);
  deliver_credits(now);
  lap(StepPhase::kDeliverCredits);
  routing_->update(now);
  lap(StepPhase::kAllocate);
  nodes_->step(now, *this, metrics_);
  lap(StepPhase::kNodes);
  // Fire the ejection wakes due this cycle before sweeping: the slots they
  // arm (and their routers) must arbitrate in this allocation pass.
  auto& due = eject_wake_[static_cast<std::size_t>(
      now % static_cast<Cycle>(wake_ring_))];
  for (const std::int32_t e : due) {
    const int gi = e >> 6;
    const RouterId r = input_router_[static_cast<std::size_t>(gi)];
    arm_slot(r, gi, static_cast<VcIndex>(e & 63));
    alloc_set_.add(r);
  }
  due.clear();
  alloc_set_.sweep([&](std::int32_t r) {
    allocate(r, now);
    return router_armed_[static_cast<std::size_t>(r)] > 0;
  });
  lap(StepPhase::kAllocate);
  // Ascending link id is the old router-major, port-ascending order.
  send_wheel_.sweep(now, [&](std::int32_t li) {
    return send_link(link_owner_[static_cast<std::size_t>(li)], li, now);
  });
  lap(StepPhase::kSend);
}

void Network::deliver_data(Cycle now) {
  data_wheel_.sweep(now, [&](std::int32_t li) {
    DirLink& link = links_[static_cast<std::size_t>(li)];
    while (!link.data.empty() && link.data.front().arrive <= now) {
      const FlyingPacket fp = link.data.front();
      link.data.pop_front();
      const int gi = link.to_input;
      if (!flit_) {
        in_[static_cast<std::size_t>(gi)].push(fp.vc, fp.ref,
                                               pool_[fp.ref].size);
        FLEXNET_TELEM(if (telem_.enabled())
                          telem_.on_delivery(li, pool_[fp.ref].size));
        ++router_buffered_[static_cast<std::size_t>(link.to)];
        arm_slot(link.to, gi, fp.vc);
        alloc_set_.add(link.to);
        continue;
      }
      // Flit-level flow control: one event per flit. The head claims a
      // buffer slot and becomes routable (cut-through: the tail may still
      // be in flight); body flits either join their head in the buffer or
      // — when the packet was already granted onward — cut through the
      // router entirely, crediting the upstream sender right away and
      // advancing the outbound stream's availability count.
      FLEXNET_TELEM(if (telem_.enabled()) telem_.on_delivery(li, 1));
      if (fp.seq == 0) {
        in_[static_cast<std::size_t>(gi)].push(fp.vc, fp.ref, 1);
        ++router_buffered_[static_cast<std::size_t>(link.to)];
        arm_slot(link.to, gi, fp.vc);
        alloc_set_.add(link.to);
        continue;
      }
      TransitTail& tail = transit_[static_cast<std::size_t>(li)];
      if (tail.ref == fp.ref && tail.remaining > 0) {
        // The freed upstream slot travels back per flit, drained in the
        // credits phase.
        push_credit(li,
                    FlyingCredit{fp.vc, 1, tail.kind, now + link.latency});
        --tail.remaining;
        if (tail.remaining == 0) tail = TransitTail{};
        FLEXNET_TELEM(if (telem_.enabled()) telem_.on_flit_transit(li));
        continue;
      }
      // Body flit joining its buffered head. add_phit pins the no-
      // interleaving invariant: the flit must belong to the newest packet
      // on its VC. A head sleeping on its incomplete tail re-arms here —
      // this is the arrival edge it waits for.
      in_[static_cast<std::size_t>(gi)].add_phit(fp.vc, fp.ref);
      if (in_[static_cast<std::size_t>(gi)].front(fp.vc) == fp.ref) {
        arm_slot(link.to, gi, fp.vc);
        alloc_set_.add(link.to);
      }
    }
    return link.data.empty() ? TimingWheel::kIdle : link.data.front().arrive;
  });
}

void Network::deliver_credits(Cycle now) {
  // Credits travel on the reverse channel back to the sender's ledger.
  // Ledgers are link-indexed, so the owning ledger of link li *is*
  // ledger_[li]: build() bakes the link→(owner, port) mapping into the
  // flat index itself — no per-cycle owner-recovery scan. Credits are
  // pushed at least one cycle ahead of their arrival, so draining them in
  // a separate phase after all data movement is byte-identical to the old
  // per-link data-then-credits interleave.
  credit_wheel_.sweep(now, [&](std::int32_t li) {
    DirLink& link = links_[static_cast<std::size_t>(li)];
    CreditLedger& ledger = ledger_[static_cast<std::size_t>(li)];
    bool drained = false;
    while (!link.credits.empty() && link.credits.front().arrive <= now) {
      const FlyingCredit& fc = link.credits.front();
      ledger.on_credit(fc.vc, fc.phits, fc.kind);
      FLEXNET_TELEM(if (telem_.enabled()) telem_.on_credit(li, fc.phits));
      link.credits.pop_front();
      drained = true;
    }
    // Ledger space only ever grows here — wake every slot sleeping on it.
    if (drained) fire_waiters(link_owner_[static_cast<std::size_t>(li)], li);
    return link.credits.empty() ? TimingWheel::kIdle
                                : link.credits.front().arrive;
  });
}

void Network::fire_waiters(RouterId r, int li) {
  auto& waiters = link_waiters_[static_cast<std::size_t>(li)];
  if (waiters.empty()) return;
  for (const std::int32_t e : waiters) {
    const int gi = e >> 6;
    const auto vc = static_cast<VcIndex>(e & 63);
    wait_link_[static_cast<std::size_t>(
        commit_index_[static_cast<std::size_t>(gi)] + vc)] = -1;
    arm_slot(r, gi, vc);
  }
  waiters.clear();
  alloc_set_.add(r);
}

bool Network::try_inject(NodeId n, Packet& pkt, Cycle now) {
  const RouterId r = topo_->router_of_node(n);
  const int node_local = n % topo_->concentration();
  const PortIndex ip = net_ports(r) + node_local;
  InputBuffer& buf = in_[static_cast<std::size_t>(input_at(r, ip))];
  // Reactive traffic keeps the last injection VC exclusive to replies so
  // blocked requests can never starve reply injection (protocol deadlock
  // avoidance extends to the injection queues).
  VcIndex lo = 0;
  VcIndex hi = config_.injection_vcs;
  if (config_.reactive) {
    if (pkt.cls == MsgClass::kRequest)
      hi = config_.injection_vcs - 1;
    else
      lo = config_.injection_vcs - 1;
  }
  VcIndex best = kInvalidVc;
  int best_free = -1;
  for (VcIndex v = lo; v < hi; ++v) {
    if (!buf.can_accept(v, pkt.size)) continue;
    const int free = buf.free_for(v);
    if (free > best_free) {
      best = v;
      best_free = free;
    }
  }
  if (best == kInvalidVc) return false;
  pkt.id = next_packet_id_++;
  pkt.injected = now;
  pkt.vc_position = kInjectionPosition;
  const PacketRef ref = pool_.alloc(pkt);
  if (record_routes_) {
    if (traces_.size() <= static_cast<std::size_t>(ref))
      traces_.resize(static_cast<std::size_t>(ref) + 1);
    traces_[static_cast<std::size_t>(ref)].clear();
  }
  // Every pool slot enters the network here, so growing the flit side
  // store now keeps grants free of resizes.
  if (flit_ && flit_src_link_.size() <= static_cast<std::size_t>(ref))
    flit_src_link_.resize(static_cast<std::size_t>(ref) + 1, -1);
  buf.push(best, ref, pkt.size);
  FLEXNET_TELEM(if (telem_.enabled()) telem_.on_injection(r));
  ++router_buffered_[static_cast<std::size_t>(r)];
  arm_slot(r, input_at(r, ip), best);
  alloc_set_.add(r);
  return true;
}

bool Network::find_action(RouterId r, PortIndex ip, VcIndex vc, Cycle now,
                          Request& req) {
  const int gi = input_at(r, ip);
  InputBuffer& buf = in_[static_cast<std::size_t>(gi)];
  const PacketRef href = buf.front(vc);
  if (href == kInvalidPacketRef) {
    disarm_slot(r, gi, vc);  // re-armed by the next push on this slot
    return false;
  }
  const Packet& head = pool_[href];
  // Downstream phits a grant must see in the ledger: wormhole claims only
  // the head flit now (body flits claim one by one as they serialize);
  // VCT and packet mode claim the whole packet up front.
  const int ledger_need =
      flow_control_ == FlowControl::kWormhole ? 1 : head.size;

  Commitment& commit = commits_[static_cast<std::size_t>(
      commit_index_[static_cast<std::size_t>(gi)] + vc)];

  // The proposal carries only the slot and output lane; grant() re-fetches
  // the committed option from `commit`, which is immutable between this
  // fill and the grant (both happen inside the same allocate pass).
  const auto fill_request = [&](int output) {
    req.in_port = ip;
    req.in_vc = vc;
    req.output = output;
  };

  // Puts the slot to sleep on its committed output link: disarmed until
  // the link's next credit return or output-buffer departure fires the
  // waiter list. wait_link_ dedupes the subscription (a safe commitment
  // always re-sleeps on the same link, so one live entry suffices; a stale
  // entry from a previous head fires a harmless idempotent re-arm).
  const auto sleep_on_link = [&](int li) {
    disarm_slot(r, gi, vc);
    std::int32_t& wl = wait_link_[static_cast<std::size_t>(
        commit_index_[static_cast<std::size_t>(gi)] + vc)];
    if (wl != li) {
      link_waiters_[static_cast<std::size_t>(li)].push_back(
          (static_cast<std::int32_t>(gi) << 6) | vc);
      wl = li;
    }
  };

  // Revalidate an existing commitment (one-shot VC allocation: the packet
  // waits for the committed VC rather than hopping to whichever VC has
  // credits this cycle). Every entry here is a repeat arbitration attempt
  // for an already-committed packet — the work pruning exists to remove.
  if (commit.pkt == head.id) {
    ++re_requests_;
    if (commit.ejection) {
      if (flit_ && buf.front_phits(vc) < head.size) {
        disarm_slot(r, gi, vc);  // re-armed per arriving body flit
        return false;
      }
      const int out =
          eject_output_index(r, head.dst % topo_->concentration(), head.cls);
      if (out_matched_[static_cast<std::size_t>(out)]) return false;
      if (!nodes_->can_consume(head.dst, head.cls, now)) {
        // Consumption is the safe sink: wait. A port-busy block clears at
        // a known cycle — park in the wake calendar instead of retrying;
        // a reply-queue block (reactive) has no timer, so stay armed.
        const Cycle free_at = nodes_->consume_free_at(head.dst, head.cls);
        if (free_at > now) schedule_eject_wake(r, gi, vc, free_at, now);
        return false;
      }
      fill_request(out);
      return true;
    }
    const int li = link_at(r, commit.out_port);
    const bool resource_ok =
        out_[static_cast<std::size_t>(li)].can_reserve(head.size) &&
        ledger_[static_cast<std::size_t>(li)].can_send(commit.out_vc,
                                                       ledger_need);
    const bool feasible =
        resource_ok &&
        !out_matched_[static_cast<std::size_t>(commit.out_port)];
    if (feasible) {
      fill_request(commit.out_port);
      return true;
    }
    if (commit.safe) {
      // Downstream resources are only consumed for the rest of this
      // allocate call, so a resource block holds until a credit returns or
      // the output buffer drains — sleep on those edges. A block on the
      // output being matched alone is transient: stay armed and retry.
      if (!resource_ok) sleep_on_link(li);
      return false;
    }
    commit.pkt = -1;  // opportunistic window closed: re-allocate below
  }

  // (Re)run VC allocation for the head packet. When the routing algorithm
  // is draw-free and VC selection consumes no randomness this whole pass
  // is pure, so a fully blocked head can sleep on its blocking links'
  // wake edges instead of re-routing every cycle; `transient` (blocked
  // only by an output matched this pass) forces a retry, and any blocked
  // option beyond the subscription buffer conservatively does the same.
  bool transient = false;
  int block_li[4];
  int blocks = 0;
  options_.clear();
  routing_->route(head, r, rng_[static_cast<std::size_t>(r)], options_);
  for (const RouteOption& opt : options_) {
    if (opt.ejection) {
      if (flit_ && buf.front_phits(vc) < head.size) {
        // No commitment yet: with a pure pass the head can sleep until
        // its next body flit lands (add_phit re-arms the front slot);
        // otherwise the retry must re-draw the routing RNG every cycle.
        if (fresh_prune_ok_) disarm_slot(r, gi, vc);
        return false;
      }
      const int out =
          eject_output_index(r, head.dst % topo_->concentration(), head.cls);
      commit_to(commit, head.id, opt, kInvalidVc, -1, /*safe=*/true);
      if (out_matched_[static_cast<std::size_t>(out)]) return false;
      if (!nodes_->can_consume(head.dst, head.cls, now)) {
        // Freshly committed (safe): revalidation is RNG-free from here on,
        // so a port-busy block can park in the wake calendar too.
        const Cycle free_at = nodes_->consume_free_at(head.dst, head.cls);
        if (free_at > now) schedule_eject_wake(r, gi, vc, free_at, now);
        return false;
      }
      fill_request(out);
      return true;
    }

    const int li = link_at(r, opt.out_port);
    OutputUnit& ou = out_[static_cast<std::size_t>(li)];
    CreditLedger& ledger = ledger_[static_cast<std::size_t>(li)];

    HopContext ctx;
    ctx.cls = head.cls;
    ctx.hop_type = opt.hop_type;
    ctx.position = head.vc_position;
    ctx.floors = {head.type_floors[0], head.type_floors[1]};
    ctx.intended_after = opt.intended_after;
    ctx.escape_after = opt.escape_after;
    cands_.clear();
    policy_->candidates(ctx, cands_);
    if (cands_.empty()) continue;  // hop inadmissible: next option

    // An on/off ledger signalling "stop" blocks the whole port (the
    // select_vc filter below only sees per-VC free space, so the
    // port-level off bit must gate here). The output-matched bit is kept
    // apart from the resource conditions: it clears when this pass ends,
    // while the others clear on link wake edges — the sleep decision
    // below needs to know which kind blocked.
    const bool out_is_matched =
        out_matched_[static_cast<std::size_t>(opt.out_port)];
    const bool output_free =
        !out_is_matched && ou.can_reserve(head.size) &&
        !(ledger.on_off_enabled() && ledger.is_off());
    // Prefer a candidate that can move right now.
    if (output_free) {
      const int sel = select_vc(
          selection_, cands_,
          [&ledger](VcIndex v) { return ledger.free_for(v); }, ledger_need,
          rng_[static_cast<std::size_t>(r)]);
      if (sel >= 0) {
        const VcCandidate& cand = cands_[static_cast<std::size_t>(sel)];
        commit_to(commit, head.id, opt, cand.phys, cand.position, cand.safe);
        fill_request(opt.out_port);
        if (cand.position > cands_.front().position)
          ++overflow_picks_;
        else
          ++lowest_picks_;
        return true;
      }
    }
    // Nothing movable: commit to a safe candidate (waitable) if one exists.
    // The *lowest* safe position is chosen — the reference-path slot whose
    // credits return first by the template-order induction, and the choice
    // preserving the most headroom for the remaining hops.
    int best = -1;
    for (std::size_t i = 0; i < cands_.size(); ++i) {
      if (cands_[i].safe) {
        best = static_cast<int>(i);
        break;
      }
    }
    if (best >= 0) {
      const VcCandidate& cand = cands_[static_cast<std::size_t>(best)];
      commit_to(commit, head.id, opt, cand.phys, cand.position,
                /*safe=*/true);
      // Wait for the committed VC's credits. A safe commitment is
      // revalidated without RNG from here on, so when the block is on
      // downstream resources the slot can sleep on the link's wake edges;
      // if only the output is matched this pass, retry (next pass may
      // grant it).
      if (!ou.can_reserve(head.size) ||
          !ledger.can_send(commit.out_vc, ledger_need))
        sleep_on_link(li);
      return false;
    }
    // Only opportunistic candidates and none movable: fall through to the
    // escape option (SIII-A: "packets revert to the corresponding safe
    // path as an escape path"). Record why this option is stuck so the
    // exhausted-loop exit can sleep a pure head on the right edges: a
    // matched output clears at end of pass (transient — retry); anything
    // else (output buffer full, on/off stop, credit starvation) clears on
    // this link's waiter-firing edges.
    if (out_is_matched) {
      transient = true;
    } else if (blocks < 4) {
      block_li[blocks++] = li;
    } else {
      transient = true;  // subscription buffer full: stay armed
    }
  }
  if (fresh_prune_ok_ && !transient) {
    // Every option is blocked on link-edge resources (or statically
    // inadmissible — candidates depend only on the packet and option, so
    // those can never come back): sleep until a blocking link fires.
    // With several blocked links the slot subscribes to each; wait_link_
    // can dedupe only one of them, and the resulting stale entries fire
    // harmless idempotent re-arms.
    disarm_slot(r, gi, vc);
    std::int32_t& wl = wait_link_[static_cast<std::size_t>(
        commit_index_[static_cast<std::size_t>(gi)] + vc)];
    for (int i = 0; i < blocks; ++i) {
      if (wl == block_li[i]) continue;
      link_waiters_[static_cast<std::size_t>(block_li[i])].push_back(
          (static_cast<std::int32_t>(gi) << 6) | vc);
    }
    if (blocks > 0) wl = block_li[blocks - 1];
  }
  return false;  // armed unless pruned: a re-run may re-draw routing RNG
}

bool Network::stage1_pick(RouterId r, PortIndex ip, Cycle now,
                          Request& req) {
  const int gi = input_at(r, ip);
  if (armed_[static_cast<std::size_t>(gi)] == 0) return false;
  RoundRobinArbiter& arb = in_arb_[static_cast<std::size_t>(gi)];
  const int width = arb.width();
  const int ptr = arb.pointer();
  for (int i = 0; i < width; ++i) {
    const VcIndex vc = static_cast<VcIndex>((ptr + i) % width);
    // Disarmed slots are exactly those whose find_action would return
    // false with no side effects and no RNG draw — skipping them is
    // byte-identical to evaluating them.
    if ((armed_[static_cast<std::size_t>(gi)] >> vc & 1) == 0) continue;
    if (find_action(r, ip, vc, now, req)) return true;
  }
  return false;
}

void Network::allocate(RouterId r, Cycle now) {
  // Pruning fast-path: a router whose every input slot is asleep would run
  // stage 1 to completion with zero proposals and zero side effects.
  if (router_armed_[static_cast<std::size_t>(r)] == 0) return;
  const int inputs = num_inputs(r);
  const int out0 = output_index_[static_cast<std::size_t>(r)];
  const int outputs = output_index_[static_cast<std::size_t>(r) + 1] - out0;
  const int speedup = config_.speedup;
  const int alloc_iters = config_.alloc_iters;
  // Each proposal is a chain of dependent loads starting at its input's VC
  // block; start those first loads together rather than one per proposal.
  const int in0 = in_index_[static_cast<std::size_t>(r)];
  for (std::uint64_t m = armed_inputs_[static_cast<std::size_t>(r)]; m != 0;
       m &= m - 1)
    in_[static_cast<std::size_t>(in0 + __builtin_ctzll(m))].prefetch();

  for (int pass = 0; pass < speedup; ++pass) {
    std::uint64_t matched_in = 0;
    // Inputs whose only armed slot lost to an output already matched this
    // pass: their re-evaluation in later iterations would take the
    // revalidation path straight to the matched-output exit — no proposal,
    // no side effects, no RNG — so the scan skips them. Cleared with the
    // matched bits when the next pass resets out_matched.
    std::uint64_t lost_in = 0;
    std::fill_n(out_matched_.begin(), outputs, static_cast<char>(0));
    // With a pure allocation pass (draw-free routing, draw-free VC
    // selection) every blocking condition is monotone while the pass
    // runs: outputs only get matched, buffers only fill, credits only
    // drain. An input that failed to propose in one iteration therefore
    // cannot propose in a later one — only the iteration's *losers*
    // (proposed, not granted) remain contenders, and later iterations
    // scan exactly those. Impure configurations re-scan everything: a
    // blocked fresh head re-draws routing RNG per evaluation, and
    // byte-equality pins that stream.
    std::uint64_t retry = ~std::uint64_t{0};
    for (int iter = 0; iter < alloc_iters; ++iter) {
      // Stage 1: every armed unmatched input proposes one (VC, option,
      // output), lowest port first. Requests batch into the router-local
      // output lanes; `touched_` tracks which lanes are live so stage 2
      // visits only those, in ascending output order.
      touched_.clear();
      std::uint64_t proposed = 0;
      std::uint64_t pend = armed_inputs_[static_cast<std::size_t>(r)] &
                           ~matched_in & ~lost_in;
      if (fresh_prune_ok_ && iter > 0) pend &= retry;
      while (pend != 0) {
        const auto ip = static_cast<PortIndex>(__builtin_ctzll(pend));
        pend &= pend - 1;
        Request req;
        if (stage1_pick(r, ip, now, req)) {
          auto& lane = lanes_[static_cast<std::size_t>(req.output)];
          if (lane.empty())
            touched_.push_back(static_cast<std::int32_t>(req.output));
          lane.push_back(req);
          proposed |= std::uint64_t{1} << ip;
        }
      }
      if (touched_.empty()) break;
      std::sort(touched_.begin(), touched_.end());
      // Stage 2: every requested output grants one input (round-robin).
      for (const std::int32_t o : touched_) {
        auto& reqs = lanes_[static_cast<std::size_t>(o)];
        if (!out_matched_[static_cast<std::size_t>(o)]) {
          RoundRobinArbiter& arb = out_arb_[static_cast<std::size_t>(out0 + o)];
          const Request* chosen = nullptr;
          int best_rank = inputs;
          for (const Request& req : reqs) {
            const int rank = (req.in_port - arb.pointer() + inputs) % inputs;
            if (rank < best_rank) {
              best_rank = rank;
              chosen = &req;
            }
          }
          grant(r, *chosen, now);
          // Allocator contention: every proposal this output saw is a
          // request; all but the granted one are conflicts (a proposal never
          // targets an already-matched output, so requests = grants +
          // conflicts).
          FLEXNET_TELEM(if (telem_.enabled()) {
            telem_.on_requests(r, static_cast<int>(reqs.size()));
            telem_.on_conflicts(r, static_cast<int>(reqs.size()) - 1);
          });
          matched_in |= std::uint64_t{1} << chosen->in_port;
          if (iter + 1 < alloc_iters) {
            // A loser re-scanned next iteration finds its committed
            // output matched and returns without proposing. That exit
            // is silent only for a *safe* commitment held by the
            // input's sole armed slot (an unsafe one re-allocates —
            // possibly drawing routing RNG — and other armed VCs on
            // the input still deserve their scan), so exactly those
            // inputs drop out of the remaining iterations.
            for (const Request& q : reqs) {
              if (&q == chosen) continue;
              const int lgi = input_at(r, q.in_port);
              if (armed_[static_cast<std::size_t>(lgi)] !=
                  std::uint64_t{1} << q.in_vc)
                continue;
              const Commitment& lc = commits_[static_cast<std::size_t>(
                  commit_index_[static_cast<std::size_t>(lgi)] + q.in_vc)];
              if (lc.safe) lost_in |= std::uint64_t{1} << q.in_port;
            }
          }
          out_matched_[static_cast<std::size_t>(o)] = true;
          in_arb_[static_cast<std::size_t>(input_at(r, chosen->in_port))]
              .advance_past(chosen->in_vc);
          arb.advance_past(chosen->in_port);
        }
        reqs.clear();
      }
      retry = proposed & ~matched_in;  // this iteration's losers
    }
  }
}

void Network::grant(RouterId r, const Request& req, Cycle now) {
  const int gi = input_at(r, req.in_port);
  // The proposal names only the slot; the option and VC granted are those
  // the slot committed to when it proposed (immutable since: commitments
  // only change inside find_action for this same slot).
  const Commitment& cmt = commits_[static_cast<std::size_t>(
      commit_index_[static_cast<std::size_t>(gi)] + req.in_vc)];
  const BufferSlot slot = in_[static_cast<std::size_t>(gi)].pop(req.in_vc);
  --router_buffered_[static_cast<std::size_t>(r)];
  Packet& pkt = pool_[slot.ref];
  last_grant_ = now;
  ++total_grants_;
  FLEXNET_TELEM(if (telem_.enabled()) telem_.on_grant(r));
  if (cmt.is_escape && pkt.valiant != kInvalidRouter &&
      !pkt.valiant_reached) {
    ++escape_grants_;
  }
  // The VC's next head (if any) carries a fresh, uncommitted packet that
  // must arbitrate; an emptied VC sleeps until the next push.
  if (in_[static_cast<std::size_t>(gi)].front(req.in_vc) == kInvalidPacketRef)
    disarm_slot(r, gi, req.in_vc);

  // Return the freed space upstream (network input ports only; injection
  // buffers are observed directly by the node). Under flit-level flow
  // control only the flits that actually reached this buffer are freed
  // now — slot.phits == pkt.size in packet mode — and a tail still in
  // flight leaves a TransitTail so the remaining flits credit upstream
  // as they arrive and feed the outbound stream's availability.
  const int uli = upstream_link_[static_cast<std::size_t>(gi)];
  if (uli >= 0) {
    const int latency = links_[static_cast<std::size_t>(uli)].latency;
    push_credit(uli, FlyingCredit{req.in_vc, slot.phits, pkt.credited_kind,
                                  now + latency});
    if (flit_ && slot.phits < pkt.size) {
      TransitTail& tail = transit_[static_cast<std::size_t>(uli)];
      FLEXNET_CHECK(tail.ref == kInvalidPacketRef);
      tail = TransitTail{slot.ref, pkt.size - slot.phits, req.in_vc,
                         pkt.credited_kind};
    }
  }
  if (flit_ && !cmt.ejection) {
    // Where the outbound stream finds this packet's TransitTail (or -1:
    // fully arrived / injected — injection buffers hold whole packets).
    // flit_src_link_ was presized at injection (every ref is injected
    // before it can be granted), so this is a plain store.
    flit_src_link_[static_cast<std::size_t>(slot.ref)] =
        slot.phits < pkt.size ? uli : -1;
  }

  if (cmt.ejection) {
    // Grants run in ascending router order, so metrics accumulate (Welford
    // means are floating-point-order sensitive) and pool slots free (LIFO)
    // in that order.
    const Cycle completion = nodes_->consume(pkt, now);
    if (trace_ != nullptr) trace_packet(pkt, slot.ref, now);
    metrics_.on_consumed(pkt, completion);
    if (nodes_->consume_spawns_reply(pkt))
      metrics_.on_generated(config_.effective_packet_phits());
    pool_.release(slot.ref);
    return;
  }

  pkt.route_kind = cmt.kind_after;
  pkt.credited_kind = pkt.route_kind;
  pkt.valiant = cmt.valiant_after;
  pkt.valiant_reached = cmt.valiant_reached_after;
  pkt.vc_position = cmt.out_position;
  {
    const VcTemplate& tmpl = policy_->tmpl();
    const LinkType t = tmpl.at(cmt.out_position).type;
    pkt.type_floors[static_cast<int>(t)] =
        static_cast<std::int16_t>(cmt.out_position);
  }
  ++pkt.hops;
  const int li = link_at(r, cmt.out_port);
  if (record_routes_)
    traces_[static_cast<std::size_t>(slot.ref)].push_back(
        static_cast<std::int16_t>(links_[static_cast<std::size_t>(li)].to));
  // Wormhole claims only the head flit at the grant; its body flits claim
  // one by one as the link stream serializes them (send_link). VCT and packet
  // mode claim the whole packet here.
  const int claim =
      flow_control_ == FlowControl::kWormhole ? 1 : pkt.size;
  ledger_[static_cast<std::size_t>(li)].on_send(cmt.out_vc, claim,
                                                pkt.route_kind);
  FLEXNET_TELEM(if (telem_.enabled()) {
    // Occupancy is sampled *after* the send lands in the ledger, so the
    // sum divided by sends gives mean sender-side occupancy at send time.
    const CreditLedger& lg = ledger_[static_cast<std::size_t>(li)];
    telem_.on_send(li, cmt.out_vc, claim, lg.occupied(cmt.out_vc),
                   lg.occupied_port());
  });
  // An output with neither queued packets nor a live stream is absent
  // from the serializer wheel: file it under its new head's start. A busy
  // one is already filed no later than that (the new packet queues behind).
  OutputUnit& ou = out_[static_cast<std::size_t>(li)];
  const bool wake = ou.idle() && (!flit_ || streams_[static_cast<std::size_t>(
                                                li)].ref == kInvalidPacketRef);
  ou.accept(slot.ref, pkt.size, cmt.out_vc, now);
  add_send_work(r, 1);
  if (wake) send_wheel_.add(li, send_due(ou, now, now));
}

Cycle Network::send_link(RouterId r, int li, Cycle now) {
  OutputUnit& ou = out_[static_cast<std::size_t>(li)];
  const int link_latency = links_[static_cast<std::size_t>(li)].latency;
  // Between packets the link is next due when its head can start; an
  // early visit (a clamped wake) is a no-op that reschedules.
  const auto next_start = [&]() {
    return ou.idle() ? TimingWheel::kIdle : send_due(ou, now + 1, now);
  };
  if (!flit_) {
    if (!ou.ready_to_send(now)) return next_start();
    VcIndex vc = kInvalidVc;
    const PacketRef ref = ou.start_send(now, vc);
    // The departure freed output-buffer space: wake the slots sleeping
    // on this link's can_reserve edge.
    fire_waiters(r, li);
    // The packet is eligible downstream one cycle after its head
    // arrives; its phits keep streaming behind it.
    push_data(li, FlyingPacket{ref, vc, now + link_latency + 1, 0});
    add_send_work(r, -1);
    return next_start();
  }
  // Flit-level flow control: the link serializes one packet at a time,
  // one flit per cycle. The head flit leaves the cycle the stream
  // starts — the same cycle packet mode pushes its single event — so
  // with one-flit packets the two paths emit identical link events.
  LinkStream& st = streams_[static_cast<std::size_t>(li)];
  if (st.ref == kInvalidPacketRef) {
    if (!ou.ready_to_send(now)) return next_start();
    VcIndex vc = kInvalidVc;
    // The packet moves from the output unit into the stream: the router's
    // send-work count is unchanged.
    const PacketRef ref = ou.start_send(now, vc);
    fire_waiters(r, li);
    const Packet& pkt = pool_[ref];
    st.ref = ref;
    st.vc = vc;
    st.next = 0;
    st.total = pkt.size;
    st.in_link = static_cast<std::size_t>(ref) < flit_src_link_.size()
                     ? flit_src_link_[static_cast<std::size_t>(ref)]
                     : -1;
    // Captured now: a later grant downstream rewrites pkt.route_kind
    // while body flits are still claiming space at this ledger.
    st.kind = pkt.route_kind;
  }
  // Availability: a flit can only leave once it has arrived here. The
  // TransitTail on the inbound link counts the flits still in flight.
  int arrived = st.total;
  if (st.in_link >= 0) {
    const TransitTail& tail =
        transit_[static_cast<std::size_t>(st.in_link)];
    if (tail.ref == st.ref)
      arrived = st.total - tail.remaining;
    else
      st.in_link = -1;  // tail fully arrived; stop consulting
  }
  // A live stream is due every cycle: a stall retries next cycle.
  if (st.next >= arrived) {
    FLEXNET_TELEM(if (telem_.enabled()) telem_.on_flit_stall(li));
    return now + 1;  // wait for the tail to catch up
  }
  if (flow_control_ == FlowControl::kWormhole && st.next > 0) {
    // Body flits claim downstream space one at a time; a full buffer
    // (or an off backpressure bit) stalls the stream in place.
    CreditLedger& ledger = ledger_[static_cast<std::size_t>(li)];
    if (!ledger.can_send(st.vc, 1)) {
      FLEXNET_TELEM(if (telem_.enabled()) telem_.on_flit_stall(li));
      return now + 1;
    }
    ledger.on_send(st.vc, 1, st.kind);
  }
  push_data(li, FlyingPacket{st.ref, st.vc, now + link_latency + 1, st.next});
  FLEXNET_TELEM(if (telem_.enabled()) telem_.on_flit(li));
  ++st.next;
  if (st.next == st.total) {
    st = LinkStream{};
    add_send_work(r, -1);
    return next_start();
  }
  return now + 1;
}

}  // namespace flexnet
