#include "sim/network.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/check.hpp"
#include "common/prefetch.hpp"
#include "scenario/registry.hpp"
#include "telemetry/trace.hpp"

namespace flexnet {

namespace {

/// The policy's question for `pkt` taking `opt` from its current buffer.
HopContext hop_context(const Packet& pkt, const RouteOption& opt) {
  HopContext ctx;
  ctx.cls = pkt.cls;
  ctx.hop_type = opt.hop_type;
  ctx.position = pkt.vc_position;
  ctx.floors = {pkt.type_floors[0], pkt.type_floors[1]};
  ctx.intended_after = opt.intended_after;
  ctx.escape_after = opt.escape_after;
  return ctx;
}

}  // namespace

bool state_gather_wanted(std::size_t state_bytes, long l2_bytes) {
  return l2_bytes > 0 && state_bytes > static_cast<std::size_t>(l2_bytes);
}

namespace {

/// The L2 size the host reports, or 0 where it has no way to say.
long reported_l2_bytes() {
#ifdef _SC_LEVEL2_CACHE_SIZE
  return sysconf(_SC_LEVEL2_CACHE_SIZE);
#else
  return 0;
#endif
}

}  // namespace

Network::Network(const SimConfig& config) : config_(config) {
  // Registry-driven construction: unknown component names fail here with
  // an error enumerating the registered alternatives, and validate_config
  // rejects configurations the components cannot serve (a VC arrangement
  // that does not fit the topology, traffic or routing, or a router wider
  // than the allocator's 64-input mask, included) before any simulation
  // state is built.
  validate_config(config_);
  topo_ = topology_registry().at(config_.topology).make(config_);

  const VcArrangement arrangement = VcArrangement::parse(config_.vcs);
  policy_ = vc_policy_registry().at(config_.policy).make(arrangement);
  selection_ = vc_selection_registry().at(config_.vc_selection).make;
  routing_ = routing_registry()
                 .at(config_.routing)
                 .make(RoutingContext{*topo_, *this, config_, arrangement});

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
  const BufferOrg org = buffer_org_registry().at(config_.buffer_org).make;
  flow_control_ = flow_control_registry().at(config_.flow_control).make;
  buffer_mgmt_ = buffer_mgmt_registry().at(config_.buffer_mgmt).make;
  flit_ = is_flit_level(flow_control_);

  // Offset tables (with sentinels) first, then one flat reserve per array:
  // the whole router state is a handful of contiguous allocations.
  link_index_.resize(static_cast<std::size_t>(num_routers) + 1);
  in_index_.resize(static_cast<std::size_t>(num_routers) + 1);
  output_index_.resize(static_cast<std::size_t>(num_routers) + 1);
  int total_links = 0;
  int total_inputs = 0;
  int total_outputs = 0;
  std::size_t total_commits = 0;  // one slot per (input, VC)
  for (RouterId r = 0; r < num_routers; ++r) {
    link_index_[static_cast<std::size_t>(r)] = total_links;
    in_index_[static_cast<std::size_t>(r)] = total_inputs;
    output_index_[static_cast<std::size_t>(r)] = total_outputs;
    const int ports = topo_->num_network_ports(r);
    total_links += ports;
    total_inputs += ports + inj_ports;
    total_outputs += num_outputs(r);
    for (PortIndex p = 0; p < ports; ++p)
      total_commits += static_cast<std::size_t>(
          tmpl.vcs_per_port(topo_->port(r, p).type));
    total_commits += static_cast<std::size_t>(inj_ports) *
                     static_cast<std::size_t>(config_.injection_vcs);
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
  commits_.reserve(total_commits);
  out_arb_.reserve(static_cast<std::size_t>(total_outputs));
  rng_.reserve(static_cast<std::size_t>(num_routers));

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
        const int size = config_.packet_size;
        const int cap = ledger_.back().capacity_port();
        ledger_.back().enable_on_off(std::min(size, cap),
                                     std::min(2 * size, cap));
      }
      max_ledger_vcs_ = std::max(max_ledger_vcs_, geom.num_vcs);

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
  router_sends_.assign(static_cast<std::size_t>(num_routers), 0);
  if (flit_) {
    transit_.assign(static_cast<std::size_t>(total_links), TransitTail{});
    streams_.assign(static_cast<std::size_t>(total_links), LinkStream{});
  }

  // Pruned-arbitration state: everything starts disarmed/unsubscribed —
  // the first injection or delivery arms its slot.
  armed_.assign(static_cast<std::size_t>(total_inputs), 0);
  wait_.assign(commits_.size(), Wait{});
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
  const Cycle lane_horizon =
      std::max(config_.local_latency, config_.global_latency) + 1;
  const Cycle send_horizon =
      std::max(config_.pipeline_latency, config_.packet_size);
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
  // packet's phit count, so the ring only needs to span one packet (plus
  // a margin cycle).
  input_router_.resize(static_cast<std::size_t>(total_inputs));
  for (RouterId r = 0; r < num_routers; ++r) {
    for (int gi = in_index_[static_cast<std::size_t>(r)];
         gi < in_index_[static_cast<std::size_t>(r) + 1]; ++gi)
      input_router_[static_cast<std::size_t>(gi)] = r;
  }
  wake_ring_ = config_.packet_size + 2;
  last_step_ = kMaxStamp - stamp_horizon(config_);
  armed_inputs_.assign(static_cast<std::size_t>(num_routers), 0);
  // Blocked uncommitted heads may sleep only when re-running their VC
  // allocation is pure: draw-free routing and a selection function that
  // consumes no randomness (kRandom reservoir-samples per feasible VC).
  fresh_prune_ok_ =
      routing_->draw_free() && selection_ != VcSelection::kRandom;
  eject_wake_.assign(static_cast<std::size_t>(wake_ring_), {});

  // The state gather pays only when what it covers misses in L2.
  state_gather_bytes_ =
      links_.size() * sizeof(DirLink) + out_.size() * sizeof(OutputUnit) +
      ledger_.size() * sizeof(CreditLedger) +
      commits_.size() * sizeof(Commitment) +
      (in_arb_.size() + out_arb_.size()) * sizeof(RoundRobinArbiter) +
      nodes_->consumer_bytes();
  state_gather_ = state_gather_wanted(state_gather_bytes_, reported_l2_bytes());
  due_.reserve(static_cast<std::size_t>(total_links));
  FLEXNET_CHECK(commits_.size() == total_commits);
}

void Network::set_telemetry_enabled(bool on) {
  // Shaped on the first enable, one per-VC lane per ledger VC: a network
  // that never counts allocates no counters (and merges as the identity).
  if (on && !telem_.configured()) {
    std::vector<int> link_vcs;
    for (const CreditLedger& lg : ledger_) link_vcs.push_back(lg.num_vcs());
    telem_.configure(topo_->num_routers(), link_vcs);
  }
  telem_.set_enabled(on);
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
              const CandidateSpan cands =
                  policy_->candidates(hop_context(head, opt));
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
  // Link and pipeline events store their cycle as a Stamp.
  FLEXNET_CHECK_MSG(now <= last_step_,
                    "step past the last cycle a 32-bit event stamp can name");
  if (telem_.enabled()) observe_step();
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
    return armed_inputs_[static_cast<std::size_t>(r)] != 0;
  });
  lap(StepPhase::kAllocate);
  // Ascending link id is the old router-major, port-ascending order.
  const auto send = [&](std::int32_t li) {
    return send_link(link_owner_[static_cast<std::size_t>(li)], li, now);
  };
  if (state_gather_)
    send_wheel_.sweep_ahead<2>(now, due_, send,
                               [this](int round, std::int32_t li) {
                                 gather_send(round, li);
                               });
  else
    send_wheel_.sweep(now, send);
  lap(StepPhase::kSend);
}

void Network::deliver_data(Cycle now) {
  // The visit is forced inline into both sweeps below: called from two
  // sites, GCC kept it out of line, and the plain sweep measured ~8%
  // slower on a DF(4,8,4) VCT network. drain in deliver_credits likewise.
  const auto deliver = [&](std::int32_t li) __attribute__((always_inline)) {
    DirLink& link = links_[static_cast<std::size_t>(li)];
    while (!link.data.empty() && link.data.front().arrive <= now) {
      const FlyingPacket fp = link.data.front();
      link.data.pop_front();
      const int gi = link.to_input;
      // The event carries its phits, so delivery reads no packet. A whole
      // packet (packet mode) or a head flit claims a buffer slot and
      // becomes routable (cut-through: a flit-mode tail may still be in
      // flight); body flits either join their head in the buffer or —
      // when the packet was already granted onward — cut through the
      // router entirely, crediting the upstream sender right away and
      // advancing the outbound stream's availability count.
      const int phits = flying_phits(fp);
      if (telem_.enabled()) observe_delivery(li, phits);
      InputBuffer& buf = in_[static_cast<std::size_t>(gi)];
      if (flying_head(fp)) {
        buf.push(fp.vc, fp.ref, phits);
        // Only a new head can change what the slot's find_action sees.
        if (buf.packets(fp.vc) == 1) {
          arm_slot(link.to, gi, fp.vc);
          alloc_set_.add(link.to);
        }
        continue;
      }
      TransitTail& tail = transit_[static_cast<std::size_t>(li)];
      if (tail.ref == fp.ref && tail.remaining > 0) {
        // The freed upstream slot travels back per flit, drained in the
        // credits phase.
        push_credit(li, fp.vc, 1, tail.kind, now + link.latency);
        --tail.remaining;
        if (tail.remaining == 0) tail = TransitTail{};
        if (telem_.enabled()) observe_transit(li);
        continue;
      }
      // Body flit joining its buffered head. add_phit pins the no-
      // interleaving invariant: the flit must belong to the newest packet
      // on its VC. An ejection head sleeping on its incomplete tail waits
      // for the flit that completes it; no other sleeping head reads how
      // much of itself has arrived.
      buf.add_phit(fp.vc, fp.ref);
      if (buf.front(fp.vc) == fp.ref &&
          buf.front_phits(fp.vc) == pool_[fp.ref].size) {
        arm_slot(link.to, gi, fp.vc);
        alloc_set_.add(link.to);
      }
    }
    return link.data.empty() ? TimingWheel::kIdle : link.data.front().arrive;
  };
  // Past L2 a visit is a chain of misses (link, lane front and input
  // buffer, its block): the lookahead sweep starts them ids ahead.
  if (state_gather_)
    data_wheel_.sweep_ahead<3>(now, due_, deliver,
                               [this](int round, std::int32_t li) {
                                 gather_delivery(round, li);
                               });
  else
    data_wheel_.sweep(now, deliver);
}

void Network::deliver_credits(Cycle now) {
  // Credits travel on the reverse channel back to the sender's ledger.
  // Ledgers are link-indexed, so the owning ledger of link li *is*
  // ledger_[li]: build() bakes the link→(owner, port) mapping into the
  // flat index itself — no per-cycle owner-recovery scan. Credits are
  // pushed at least one cycle ahead of their arrival, so draining them in
  // a separate phase after all data movement is byte-identical to the old
  // per-link data-then-credits interleave.
  const auto drain = [&](std::int32_t li) __attribute__((always_inline)) {
    DirLink& link = links_[static_cast<std::size_t>(li)];
    CreditLedger& ledger = ledger_[static_cast<std::size_t>(li)];
    bool drained = false;
    while (!link.credits.empty() && link.credits.front().arrive <= now) {
      const FlyingCredit& fc = link.credits.front();
      ledger.on_credit(fc.vc, fc.phits, fc.kind);
      if (telem_.enabled()) observe_credit(li, fc.phits);
      link.credits.pop_front();
      drained = true;
    }
    // Ledger space only ever grows here: wake the slots it can unblock.
    if (drained)
      fire_waiters<true>(link_owner_[static_cast<std::size_t>(li)], li);
    return link.credits.empty() ? TimingWheel::kIdle
                                : link.credits.front().arrive;
  };
  if (state_gather_)
    credit_wheel_.sweep_ahead<2>(now, due_, drain,
                                 [this](int round, std::int32_t li) {
                                   gather_credits(round, li);
                                 });
  else
    credit_wheel_.sweep(now, drain);
}

template <bool kCreditEdge>
void Network::fire_waiters(RouterId r, int li) {
  auto& waiters = link_waiters_[static_cast<std::size_t>(li)];
  if (waiters.empty()) return;
  const CreditLedger& ledger = ledger_[static_cast<std::size_t>(li)];
  const OutputUnit& ou = out_[static_cast<std::size_t>(li)];
  std::size_t kept = 0;
  bool woke = false;
  for (const std::int32_t e : waiters) {
    const int gi = e >> 6;
    const auto vc = static_cast<VcIndex>(e & 63);
    Wait& w = wait_[static_cast<std::size_t>(
        commit_index_[static_cast<std::size_t>(gi)] + vc)];
    if (w.link == li) {
      if (w.vc != kInvalidVc) {
        // The committed head's revalidation test, reading first the line
        // this phase already holds.
        const int need = ledger_claim(w.size);
        const bool clear =
            kCreditEdge
                ? ledger.can_send(w.vc, need) && ou.can_reserve(w.size)
                : ou.can_reserve(w.size) && ledger.can_send(w.vc, need);
        if (!clear) {
          waiters[kept++] = e;
          continue;
        }
      }
      w.link = -1;
    }
    arm_slot(r, gi, vc);
    woke = true;
  }
  waiters.resize(kept);
  if (woke) alloc_set_.add(r);
}

bool Network::try_inject(NodeId n, Packet& pkt, Cycle now) {
  // Credits and pipeline slots carry a packet's phits in 16 bits.
  FLEXNET_CHECK_MSG(pkt.size >= 1 && pkt.size <= kMaxPacketPhits,
                    "a packet holds 1 to 32767 phits");
  const RouterId r = topo_->router_of_node(n);
  const int gi = injection_input(n);
  InputBuffer& buf = in_[static_cast<std::size_t>(gi)];
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
  buf.push(best, ref, pkt.size);
  if (telem_.enabled()) observe_injection(r);
  if (buf.packets(best) == 1) {
    arm_slot(r, gi, best);
    alloc_set_.add(r);
  }
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
  // Downstream phits a grant must see in the ledger.
  const int ledger_need = ledger_claim(head.size);

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

  Wait& wait = wait_[static_cast<std::size_t>(
      commit_index_[static_cast<std::size_t>(gi)] + vc)];

  // Puts the slot to sleep on its committed output link: disarmed until a
  // credit return or output-buffer departure on the link makes room for
  // this head on its committed VC. The condition is rewritten every time,
  // since the live entry may be a previous head's. wait.link dedupes the
  // subscription (a safe commitment always re-sleeps on the same link, so
  // one live entry suffices; a stale entry from a previous head fires a
  // harmless idempotent re-arm).
  const auto sleep_on_link = [&](int li) {
    disarm_slot(r, gi, vc);
    wait.size = head.size;
    wait.vc = commit.out_vc;
    if (wait.link != li) {
      link_waiters_[static_cast<std::size_t>(li)].push_back(
          (static_cast<std::int32_t>(gi) << 6) | vc);
      wait.link = li;
    }
  };

  // Revalidate an existing commitment (one-shot VC allocation: the packet
  // waits for the committed VC rather than hopping to whichever VC has
  // credits this cycle). Every entry here is a repeat arbitration attempt
  // for an already-committed packet — the work pruning exists to remove.
  if (commit.pkt == head.id) {
    ++re_requests_;
    if (commit.ejection()) {
      if (flit_ && buf.front_phits(vc) < head.size) {
        disarm_slot(r, gi, vc);  // re-armed by the completing body flit
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
    if (commit.safe()) {
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
        // No commitment yet, but at the destination route() returned this
        // option alone and drew nothing, so the head sleeps until the body
        // flit that completes it lands, whatever the routing algorithm.
        disarm_slot(r, gi, vc);
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

    // Valid until the next lookup: this option's evaluation only.
    const CandidateSpan cands = policy_->candidates(hop_context(head, opt));
    if (cands.empty()) continue;  // hop inadmissible: next option

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
          selection_, cands,
          [&ledger](VcIndex v) { return ledger.free_for(v); }, ledger_need,
          rng_[static_cast<std::size_t>(r)]);
      if (sel >= 0) {
        const VcCandidate& cand = cands[static_cast<std::size_t>(sel)];
        commit_to(commit, head.id, opt, cand.phys, cand.position, cand.safe);
        fill_request(opt.out_port);
        return true;
      }
    }
    // Nothing movable: commit to a safe candidate (waitable) if one exists.
    // The *lowest* safe position is chosen — the reference-path slot whose
    // credits return first by the template-order induction, and the choice
    // preserving the most headroom for the remaining hops.
    int best = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].safe) {
        best = static_cast<int>(i);
        break;
      }
    }
    if (best >= 0) {
      const VcCandidate& cand = cands[static_cast<std::size_t>(best)];
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
    // those can never come back): sleep until a blocking link fires, any
    // fire. With several blocked links the slot subscribes to each;
    // wait.link can dedupe only one of them, and the resulting stale
    // entries fire harmless idempotent re-arms.
    disarm_slot(r, gi, vc);
    wait.vc = kInvalidVc;
    for (int i = 0; i < blocks; ++i) {
      if (wait.link == block_li[i]) continue;
      link_waiters_[static_cast<std::size_t>(block_li[i])].push_back(
          (static_cast<std::int32_t>(gi) << 6) | vc);
    }
    if (blocks > 0) wait.link = block_li[blocks - 1];
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
  if (armed_inputs_[static_cast<std::size_t>(r)] == 0) return;
  const int inputs = num_inputs(r);
  const int out0 = output_index_[static_cast<std::size_t>(r)];
  const int outputs = output_index_[static_cast<std::size_t>(r) + 1] - out0;
  const int speedup = config_.speedup;
  const int alloc_iters = config_.alloc_iters;
  // Each proposal is a chain of dependent loads: its input's VC block, then
  // the head packet at a random pool slot. Start every armed input's block
  // load together, then every armed head's line, before stage 1 waits on
  // any of them. Past L2 the state gather widens both rounds to the rest
  // of the router's allocation state.
  const int in0 = in_index_[static_cast<std::size_t>(r)];
  const std::uint64_t armed_in = armed_inputs_[static_cast<std::size_t>(r)];
  for (std::uint64_t m = armed_in; m != 0; m &= m - 1) {
    const InputBuffer& buf =
        in_[static_cast<std::size_t>(in0 + __builtin_ctzll(m))];
    if (state_gather_)
      buf.prefetch_block();
    else
      buf.prefetch();
  }
  if (state_gather_) gather_state(r);
  for (std::uint64_t m = armed_in; m != 0; m &= m - 1) {
    const int gi = in0 + __builtin_ctzll(m);
    const InputBuffer& buf = in_[static_cast<std::size_t>(gi)];
    for (std::uint64_t v = armed_[static_cast<std::size_t>(gi)]; v != 0;
         v &= v - 1) {
      const PacketRef ref = buf.front(__builtin_ctzll(v));
      if (ref != kInvalidPacketRef) pool_.prefetch(ref);
    }
  }
  if (state_gather_) gather_targets(r);

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
          // Allocator contention: a proposal never targets an already-
          // matched output, so every one this output saw is a request.
          if (telem_.enabled())
            observe_arbitration(r, static_cast<int>(reqs.size()));
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
              if (lc.safe()) lost_in |= std::uint64_t{1} << q.in_port;
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

// A function that only loads and prefetches looks pure to the optimizer,
// which then deletes every call to it: the empty volatile asm in each
// gather function is the side effect that keeps its calls.
void Network::gather_state(RouterId r) const {
  asm volatile("");
  const auto ri = static_cast<std::size_t>(r);
  const int in0 = in_index_[ri];
  for (std::uint64_t m = armed_inputs_[ri]; m != 0; m &= m - 1) {
    const auto gi = static_cast<std::size_t>(in0 + __builtin_ctzll(m));
    // The armed slots' commitments, and the link whose credit lane a
    // grant on this input pays back.
    const Commitment* slots = commits_.data() + commit_index_[gi];
    for (std::uint64_t v = armed_[gi]; v != 0; v &= v - 1) {
      const Commitment* slot = slots + __builtin_ctzll(v);
      prefetch_lines(slot, slot + 1);
    }
    if (upstream_link_[gi] >= 0) {
      const DirLink* link = links_.data() + upstream_link_[gi];
      prefetch_lines(link, link + 1);
    }
  }
  prefetch_lines(in_arb_.data() + in0, in_arb_.data() + in_index_[ri + 1]);
  prefetch_lines(out_arb_.data() + output_index_[ri],
                 out_arb_.data() + output_index_[ri + 1]);
  prefetch_lines(out_.data() + link_index_[ri],
                 out_.data() + link_index_[ri + 1]);
  topo_->prefetch_ports(r);
  nodes_->prefetch_consumers(topo_->first_node_of_router(r),
                             topo_->concentration());
}

void Network::gather_targets(RouterId r) const {
  asm volatile("");
  const auto ri = static_cast<std::size_t>(r);
  const int in0 = in_index_[ri];
  const int l0 = link_index_[ri];
  for (std::uint64_t m = armed_inputs_[ri]; m != 0; m &= m - 1) {
    const auto gi = static_cast<std::size_t>(in0 + __builtin_ctzll(m));
    // The ledger of each committed output: the line revalidation reads.
    const Commitment* slots = commits_.data() + commit_index_[gi];
    for (std::uint64_t v = armed_[gi]; v != 0; v &= v - 1) {
      const Commitment& c = slots[__builtin_ctzll(v)];
      if (c.pkt >= 0 && !c.ejection())
        ledger_[static_cast<std::size_t>(l0 + c.out_port)].prefetch(
            max_ledger_vcs_);
    }
    // The credit slot a grant on this input pushes.
    if (upstream_link_[gi] >= 0)
      links_[static_cast<std::size_t>(upstream_link_[gi])]
          .credits.prefetch_back();
  }
  // The pipeline slot a grant to each output writes.
  for (int li = l0; li < link_index_[ri + 1]; ++li)
    out_[static_cast<std::size_t>(li)].prefetch_tail();
}

void Network::gather_delivery(int round, int li) const {
  asm volatile("");
  const DirLink& link = links_[static_cast<std::size_t>(li)];
  if (round == 0) {
    prefetch_lines(&link, &link + 1);
    return;
  }
  const InputBuffer& in = in_[static_cast<std::size_t>(link.to_input)];
  if (round == 1) {
    link.data.prefetch_front();
    prefetch_lines(&in, &in + 1);
  } else {
    in.prefetch_block();
  }
}

void Network::gather_credits(int round, int li) const {
  asm volatile("");
  const auto i = static_cast<std::size_t>(li);
  if (round == 0) {
    prefetch_lines(&links_[i], &links_[i] + 1);
    ledger_[i].prefetch(max_ledger_vcs_);
    prefetch_lines(&link_waiters_[i], &link_waiters_[i] + 1);
  } else {
    links_[i].credits.prefetch_front();
  }
}

void Network::gather_send(int round, int li) const {
  asm volatile("");
  const auto i = static_cast<std::size_t>(li);
  if (round == 0) {
    prefetch_lines(&out_[i], &out_[i] + 1);
    prefetch_lines(&links_[i], &links_[i] + 1);
    prefetch_lines(&link_waiters_[i], &link_waiters_[i] + 1);
  } else {
    out_[i].prefetch_head();
    links_[i].data.prefetch_back();
  }
}

void Network::gather_injection(int round, NodeId n) const {
  asm volatile("");
  const InputBuffer& buf =
      in_[static_cast<std::size_t>(injection_input(n))];
  if (round == 0)
    prefetch_lines(&buf, &buf + 1);
  else
    buf.prefetch_block();
}

void Network::grant(RouterId r, const Request& req, Cycle now) {
  const int gi = input_at(r, req.in_port);
  // The proposal names only the slot; the option and VC granted are those
  // the slot committed to when it proposed (immutable since: commitments
  // only change inside find_action for this same slot).
  const Commitment& cmt = commits_[static_cast<std::size_t>(
      commit_index_[static_cast<std::size_t>(gi)] + req.in_vc)];
  const BufferSlot slot = in_[static_cast<std::size_t>(gi)].pop(req.in_vc);
  Packet& pkt = pool_[slot.ref];
  last_grant_ = now;
  ++total_grants_;
  if (telem_.enabled()) observe_grant(r);
  if (cmt.is_escape() && pkt.valiant != kInvalidRouter &&
      !pkt.valiant_reached) {
    ++escape_grants_;
  }
  // The VC's next head (if any) carries a fresh, uncommitted packet that
  // must arbitrate; an emptied VC sleeps until the next push.
  if (in_[static_cast<std::size_t>(gi)].front(req.in_vc) == kInvalidPacketRef)
    disarm_slot(r, gi, req.in_vc);

  // Return the freed space upstream (network input ports only; a pop of
  // an injection buffer is the space a parked node waits for, see
  // Nodes::step). Under flit-level flow control only the flits that
  // actually reached this buffer are freed now — slot.phits == pkt.size in
  // packet mode — and a tail still in flight leaves a TransitTail so the
  // remaining flits credit upstream as they arrive and feed the outbound
  // stream's availability.
  const int uli = upstream_link_[static_cast<std::size_t>(gi)];
  if (uli >= 0) {
    const int latency = links_[static_cast<std::size_t>(uli)].latency;
    push_credit(uli, req.in_vc, slot.phits, pkt.route_kind, now + latency);
    if (flit_ && slot.phits < pkt.size) {
      TransitTail& tail = transit_[static_cast<std::size_t>(uli)];
      FLEXNET_CHECK(tail.ref == kInvalidPacketRef);
      tail = TransitTail{slot.ref, pkt.size - slot.phits, req.in_vc,
                         pkt.route_kind};
    }
  } else {
    nodes_->unpark(topo_->first_node_of_router(r) + req.in_port -
                   net_ports(r));
  }

  if (cmt.ejection()) {
    // Grants run in ascending router order, so metrics accumulate (Welford
    // means are floating-point-order sensitive) and pool slots free (LIFO)
    // in that order.
    const Cycle completion = nodes_->consume(pkt, now);
    if (trace_ != nullptr) trace_packet(pkt, slot.ref, now);
    metrics_.on_consumed(pkt, completion);
    if (nodes_->consume_spawns_reply(pkt))
      metrics_.on_generated(config_.packet_size);
    pool_.release(slot.ref);
    return;
  }

  pkt.route_kind = cmt.kind_after();
  pkt.valiant = cmt.valiant_after;
  pkt.valiant_reached = cmt.valiant_reached_after();
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
  const int claim = ledger_claim(pkt.size);
  ledger_[static_cast<std::size_t>(li)].on_send(cmt.out_vc, claim,
                                                pkt.route_kind);
  if (telem_.enabled()) observe_send(li, cmt.out_vc, claim);
  // An output with neither queued packets nor a live stream is absent
  // from the serializer wheel: file it under its new head's start. A busy
  // one is already filed no later than that (the new packet queues behind).
  OutputUnit& ou = out_[static_cast<std::size_t>(li)];
  const bool wake = ou.idle() && (!flit_ || streams_[static_cast<std::size_t>(
                                                li)].ref == kInvalidPacketRef);
  ou.accept(slot.ref, pkt.size, cmt.out_vc, now,
            slot.phits < pkt.size ? uli : -1);
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
    const OutputUnit::Departure d = ou.start_send(now);
    // The departure freed output-buffer space: wake the slots it can
    // unblock.
    fire_waiters<false>(r, li);
    // The packet is eligible downstream one cycle after its head
    // arrives; its phits keep streaming behind it.
    push_data(li, d.ref, d.vc, now + link_latency + 1, d.phits);
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
    // The packet moves from the output unit into the stream: the router's
    // send-work count is unchanged.
    const OutputUnit::Departure d = ou.start_send(now);
    fire_waiters<false>(r, li);
    st.ref = d.ref;
    st.vc = d.vc;
    st.next = 0;
    st.total = d.phits;
    st.in_link = d.in_link;
    // Captured now: a later grant downstream rewrites the packet's
    // route_kind while body flits are still claiming space at this ledger.
    st.kind = pool_[d.ref].route_kind;
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
    if (telem_.enabled()) observe_flit_stall(li);
    return now + 1;  // wait for the tail to catch up
  }
  if (flow_control_ == FlowControl::kWormhole && st.next > 0) {
    // Body flits claim downstream space one at a time; a full buffer
    // (or an off backpressure bit) stalls the stream in place.
    CreditLedger& ledger = ledger_[static_cast<std::size_t>(li)];
    if (!ledger.can_send(st.vc, 1)) {
      if (telem_.enabled()) observe_flit_stall(li);
      return now + 1;
    }
    ledger.on_send(st.vc, 1, st.kind);
  }
  push_data(li, st.ref, st.vc, now + link_latency + 1, st.next);
  if (telem_.enabled()) observe_flit(li);
  ++st.next;
  if (st.next == st.total) {
    st = LinkStream{};
    add_send_work(r, -1);
    return next_start();
  }
  return now + 1;
}

}  // namespace flexnet
