// The network: routers, links, nodes, and one simulation step.
//
// Each router is a combined input-output buffered VCT switch (Table V):
// per-port input buffers with VCs, an iterative input-first separable
// allocator running `speedup` passes per link cycle, a 5-cycle pipeline in
// front of a small output buffer, and credit-based flow control whose
// credits travel back with the link latency.
//
// Engine layout (the active-set core):
//   * Router state is struct-of-arrays: input buffers, arbiters,
//     commitments, output units, and credit ledgers live in flat vectors
//     indexed by global (router, port) slots via per-router offset tables
//     (`in_index_` / `link_index_` / `output_index_`, each with a sentinel).
//     A port's per-VC state is one allocation (InputBuffer) or inline
//     (CreditLedger); commitments hold scalars only; the allocator's
//     request lanes are scratch indexed by router-local output.
//   * Packets live in a PacketPool slab from injection to consumption;
//     queues and link lanes move 4-byte PacketRefs, never whole packets.
//   * In-flight traffic sits in per-link ring-buffer event lanes
//     (EventLane) ordered by arrival cycle. Each event carries the phits
//     it delivers, so delivery never reads the pool; a head's pool line is
//     first touched by its allocation.
//   * Allocation gathers before it evaluates: Network::allocate(r) starts
//     the loads of every armed head of router r (input VC block, then the
//     head's pool line) before stage 1 waits on any of them. When the
//     network outgrows L2 (state_gather_wanted), the state gather widens
//     this to r's allocation working set, so its misses overlap instead of
//     queueing one per proposal or grant: whole VC blocks, then the armed
//     slots' commitments, the upstream links grants credit, both arbiter
//     slices, the output units, the port table and the nodes' consumption
//     ports; after the head prefetches, the ledgers the commitments name
//     and the credit and pipeline ring slots a grant writes.
//   * Link phases are event-driven: data lanes, credit lanes and output
//     serializers sit in per-phase timing wheels (TimingWheel) under the
//     cycle their next event is due, so a cycle visits only the links with
//     something due now. Allocation iterates the routers with armed input
//     slots (ActiveSet). Both sweep in ascending id order, so results are
//     bit-identical to the full scans they replaced; quiescent routers and
//     links in mid-flight cost nothing.
//   * Past L2 every phase's worklist gathers too, under the same selection
//     as the state gather. The data, credit and serializer wheels sweep
//     with lookahead (TimingWheel::sweep_ahead), and so does the nodes'
//     injection pass over its backlog (for_each_ahead): visits keep their
//     ascending order, and a few ids ahead of each visit its chain of
//     dependent loads starts one link per round. For a data lane that is
//     the link, then the lane's front slot and the receiving input
//     buffer, then that buffer's block; gather_credits, gather_send and
//     Nodes::gather_injection name the others. Below L2 the plain sweeps
//     run.
//   * Arbitration is pruned and batched: every input VC slot carries an
//     armed bit, and a head packet blocked on a condition that only a
//     discrete event can change (credit return, output-buffer slot free,
//     the flit completing it) is disarmed until such an event fires and
//     can clear it — it stops re-arbitrating every cycle. Slots blocked on
//     transient or time-varying conditions (allocator matching, reply
//     queues) stay armed and retry, preserving byte-identical results.
//     Nodes likewise park on a full injection buffer until a grant pops
//     it (Nodes::step).
//   * Every container above draws from the network's own Arena
//     (common/arena.hpp) through std::pmr allocators: a paper-scale
//     network's state sits on 2 MB pages, a smoke-scale one stays on base
//     pages, and results never depend on where the bytes live.
//   * step() is one serial sweep on the calling thread. Parallelism lives
//     a level up: SweepRunner runs independent (series, load, seed) jobs
//     on its worker pool, one Network per job.
// Determinism invariants are spelled out in README "Engine architecture";
// tests/test_core_equivalence.cpp enforces them against golden reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "buffers/buffer_mgmt.hpp"
#include "buffers/buffer_org.hpp"
#include "buffers/credit_ledger.hpp"
#include "buffers/flow_control.hpp"
#include "buffers/input_buffer.hpp"
#include "buffers/packet_pool.hpp"
#include "common/arena.hpp"
#include "common/event_lane.hpp"
#include "core/flexvc_policy.hpp"
#include "core/vc_selection.hpp"
#include "router/arbiter.hpp"
#include "router/output_unit.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "telemetry/phase_timers.hpp"
#include "telemetry/telemetry.hpp"

namespace flexnet {

class TraceWriter;

/// Whether Network::allocate runs the state gather: on when `state_bytes`,
/// the per-router arrays the gather covers, exceed the L2 size `l2_bytes`
/// that sysconf(_SC_LEVEL2_CACHE_SIZE) reports. State that fits in L2
/// hits there anyway, and the extra prefetches only cost instructions:
/// forced on, a smoke-scale network ran 18% slower and a DF(4,8,4) one
/// 4.5% slower. sysconf reports 0 or -1 where the host does not expose
/// its cache geometry; the gather then stays off, since the un-gathered
/// path is the one that never costs that much.
bool state_gather_wanted(std::size_t state_bytes, long l2_bytes);

class Network final : public CongestionOracle {
 public:
  explicit Network(const SimConfig& config);
  ~Network() override;

  /// Advances one link-clock cycle. The link phases drain one timing-wheel
  /// bucket per call, so call it once for every consecutive cycle.
  void step(Cycle now);

  // CongestionOracle (sender-side credit occupancy of output ports).
  int port_occupancy(RouterId r, PortIndex p, bool min_only) const override;
  int vc_occupancy(RouterId r, PortIndex p, VcIndex vc,
                   bool min_only) const override;

  const Topology& topology() const { return *topo_; }
  const SimConfig& config() const { return config_; }
  FlowControl flow_control() const { return flow_control_; }
  BufferMgmt buffer_mgmt() const { return buffer_mgmt_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const VcPolicy& policy() const { return *policy_; }
  RoutingAlgorithm& routing() { return *routing_; }

  /// Telemetry counters of this network (telemetry/telemetry.hpp). Always
  /// present and shaped; updated only while enabled, which is off until
  /// set_telemetry_enabled turns it on.
  const TelemetryCounters& telemetry() const { return telem_; }
  /// Wall-clock seconds per Network::step phase, accumulated only while
  /// telemetry is enabled (telemetry/phase_timers.hpp).
  const PhaseTimers& phase_times() const { return phases_; }
  /// The memory resource all engine state draws from (common/arena.hpp).
  const Arena& arena() const { return arena_; }
  void set_telemetry_enabled(bool on) { telem_.set_enabled(on); }

  /// Whether allocate runs the state gather (chosen by build() through
  /// state_gather_wanted), and the bytes that choice weighed.
  bool state_gather() const { return state_gather_; }
  std::size_t state_gather_bytes() const { return state_gather_bytes_; }
  /// Forces the state gather on or off (tests). A prefetch changes no
  /// value, so results are bit-identical either way.
  void set_state_gather(bool on) { state_gather_ = on; }
  /// The injection pass's lookahead into router state (Nodes::step):
  /// round 0 starts node n's injection InputBuffer, round 1 its block.
  void gather_injection(int round, NodeId n) const;

  /// Opt-in per-packet lifetime spans: every consumed packet emits one
  /// Chrome-trace event into `trace` under process id `pid` (ts/dur in
  /// simulation cycles, tid = pool slot; see telemetry/trace.hpp). Also
  /// turns on the per-hop route side store so spans carry the router path.
  /// Independent of the telemetry enable, like the FLEXNET_DEBUG_STUCK
  /// diagnostics it reuses.
  void set_trace(TraceWriter* trace, int pid) {
    trace_ = trace;
    trace_pid_ = pid;
    record_routes_ = debug_stuck_ || trace_ != nullptr;
  }

  /// Packets inside routers/links (excludes node source queues): the
  /// quantity the deadlock watchdog monitors. Exactly the PacketPool's
  /// live count — a packet is pooled at injection and released at
  /// consumption.
  std::int64_t packets_in_network() const { return pool_.live(); }

  /// Cycle of the most recent packet movement (grant); the deadlock
  /// watchdog declares deadlock when this stops advancing while packets
  /// remain in the network.
  Cycle last_grant() const { return last_grant_; }

  /// Grants that abandoned a nonminimal trajectory for the minimal escape
  /// (opportunistic reverts, SIII-A) and total grants — diagnostic ratio.
  std::int64_t escape_grants() const { return escape_grants_; }
  std::int64_t total_grants() const { return total_grants_; }
  /// Arbitration attempts by packets that already held a commitment — the
  /// repeat work re-request pruning removes; re_requests / total_grants is
  /// the waste ratio perfbench reports as sim.re_requests_per_grant.
  std::int64_t re_requests() const { return re_requests_; }

  /// Moves a packet from a node into its router's injection buffer; false
  /// when every eligible injection VC is full.
  bool try_inject(NodeId n, Packet& pkt, Cycle now);

  /// Direct read access to one input buffer (tests/inspection). Input
  /// ports are the router's network ports followed by its injection port.
  const InputBuffer& input_buffer(RouterId r, PortIndex p) const {
    return in_[static_cast<std::size_t>(input_at(r, p))];
  }
  int num_input_ports(RouterId r) const { return num_inputs(r); }

  /// Prints every buffered head packet older than `min_age` — the stalled
  /// traffic diagnostic the deadlock watchdog triggers. Gated on the
  /// FLEXNET_DEBUG_STUCK environment variable: unless it is set (non-empty,
  /// not "0"), neither this dump nor the per-hop trace recording it feeds
  /// on costs anything — diagnostics are free on the hot path.
  void debug_dump_stuck(Cycle now, Cycle min_age) const;

 private:
  /// A packet in flight on a link (payload in the pool slab). Under
  /// flit-level flow control one event per flit travels the lane; `seq` is
  /// the flit's index within its packet (0 = head). Packet mode keeps one
  /// event per packet with seq 0. `phits` is what the event adds to the
  /// downstream buffer — the packet's size in packet mode, 1 per flit — so
  /// delivery never reads the packet itself.
  struct FlyingPacket {
    PacketRef ref = kInvalidPacketRef;
    VcIndex vc = kInvalidVc;
    Cycle arrive = 0;
    std::int32_t seq = 0;
    std::int32_t phits = 0;
  };
  static_assert(sizeof(FlyingPacket) == 24,
                "phits fills the padding after seq");
  struct FlyingCredit {
    VcIndex vc = kInvalidVc;
    int phits = 0;
    RouteKind kind = RouteKind::kMinimal;
    Cycle arrive = 0;
  };

  /// One directed network link plus its credit backchannel. Both lanes are
  /// rings ordered by arrival cycle (fixed latency, monotone clock).
  /// Allocator-aware, so the lanes draw from links_'s resource.
  struct DirLink {
    using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
    explicit DirLink(const allocator_type& alloc)
        : data(alloc), credits(alloc) {}
    DirLink(DirLink&& o, const allocator_type& alloc)
        : to(o.to),
          to_input(o.to_input),
          latency(o.latency),
          data(std::move(o.data), alloc),
          credits(std::move(o.credits), alloc) {}

    RouterId to = kInvalidRouter;
    int to_input = -1;  ///< global input index the link feeds
    int latency = 1;
    EventLane<FlyingPacket> data;
    EventLane<FlyingCredit> credits;  ///< toward this link's sender
  };

  /// One-shot VC allocation (the router's VC-allocation stage): the head
  /// packet of an input VC commits to one (output port, downstream VC) and
  /// then waits for its credits through switch allocation. A *safe*
  /// commitment may be waited on indefinitely; an opportunistic one is
  /// dropped and re-made the moment its credits disappear. Holds only the
  /// scalars of the chosen RouteOption that revalidation and grant() read.
  struct Commitment {
    PacketId pkt = -1;  ///< head packet this commitment belongs to
    PortIndex out_port = kInvalidPort;
    VcIndex out_vc = kInvalidVc;
    int out_position = -1;
    RouterId valiant_after = kInvalidRouter;
    RouteKind kind_after = RouteKind::kMinimal;
    bool ejection = false;
    bool is_escape = false;
    bool valiant_reached_after = false;
    bool safe = false;
  };

  /// What a sleeping commit slot waits on: the link whose waiter list
  /// holds its live entry (-1: none) and, for a safe commitment, the
  /// head's size and committed VC, so a fire can tell whether it clears
  /// the block. vc == kInvalidVc re-arms on any fire.
  struct Wait {
    std::int32_t link = -1;
    std::int32_t size = 0;
    VcIndex vc = kInvalidVc;
  };

  /// Tail of a granted packet still arriving on an inbound link (flit
  /// modes only). Body flits landing while this record is live bypass the
  /// input buffer: they credit the upstream sender immediately and feed
  /// the outbound stream's availability count. At most one record per
  /// link — a link serializes one packet at a time, so a new head cannot
  /// arrive before the previous tail completes.
  struct TransitTail {
    PacketRef ref = kInvalidPacketRef;
    std::int32_t remaining = 0;  ///< flits still to arrive
    VcIndex in_vc = kInvalidVc;
    RouteKind kind = RouteKind::kMinimal;  ///< kind upstream credits carry
  };

  /// Per-link outbound flit stream (flit modes only): the packet currently
  /// serializing onto the link at one flit per cycle. A stream stalls in
  /// place when the next flit has not yet arrived from upstream, or — under
  /// wormhole — when the downstream buffer has no space for a body flit.
  struct LinkStream {
    PacketRef ref = kInvalidPacketRef;
    VcIndex vc = kInvalidVc;
    std::int32_t next = 0;   ///< next flit sequence to emit
    std::int32_t total = 0;  ///< packet size in flits
    int in_link = -1;        ///< inbound link feeding the tail, or -1
    RouteKind kind = RouteKind::kMinimal;  ///< kind body-flit claims carry
  };

  /// A stage-1 proposal: just the slot and its target output lane. The
  /// route option and VC chosen for it live in the slot's Commitment —
  /// grant() re-fetches them, so proposals stay pointer-sized instead of
  /// dragging two HopSeq arrays through every lane push per iteration.
  struct Request {
    PortIndex in_port = kInvalidPort;
    VcIndex in_vc = kInvalidVc;
    int output = -1;  ///< router-local output (network port or ejection)
  };

  int num_outputs(RouterId r) const;  // network ports + p*2 eject channels
  int eject_output_index(RouterId r, int node_local, MsgClass cls) const;

  void build();

  // --- Telemetry hooks. Each is a const member function, so inside one
  // `this` is const: a hook can write only telem_ and phases_, and an
  // assignment to simulation state held by value, or a call to a non-const
  // method on it, fails to compile. (The owning pointers topo_, policy_,
  // routing_ and nodes_ stay shallow-const; no hook reads them.) Call
  // sites pass ids and scalars and test telem_.enabled() first, so a
  // telemetry-off run pays one never-taken branch per site. (The test
  // sits at the call site because a test inside the inlined hook changed
  // GCC's code for allocate and grant and measured ~3% slower.)
  /// Active-set gauges at the start of a step; starts the phase clock.
  void observe_step() const {
    telem_.on_step(static_cast<std::int64_t>(data_wheel_.size() +
                                             credit_wheel_.size()),
                   static_cast<std::int64_t>(alloc_set_.size()),
                   send_routers_, pool_.live());
    phases_.start();
  }
  /// Charges the time since the previous lap to phase p. Unlike the other
  /// hooks it tests the enable itself.
  void lap(StepPhase p) const {
    if (telem_.enabled()) phases_.lap(p);
  }
  void observe_delivery(int li, int phits) const {
    telem_.on_delivery(li, phits);
  }
  void observe_transit(int li) const { telem_.on_flit_transit(li); }
  void observe_credit(int li, int phits) const {
    telem_.on_credit(li, phits);
  }
  void observe_injection(RouterId r) const { telem_.on_injection(r); }
  /// One output of router r granted one of its `requests` proposals; the
  /// rest are conflicts, so requests = grants + conflicts.
  void observe_arbitration(RouterId r, int requests) const {
    telem_.on_requests(r, requests);
    telem_.on_conflicts(r, requests - 1);
  }
  void observe_grant(RouterId r) const { telem_.on_grant(r); }
  /// A send of `phits` on link li's VC vc. Occupancy is sampled *after*
  /// the send lands in the ledger, so the sum divided by sends gives the
  /// mean sender-side occupancy at send time.
  void observe_send(int li, VcIndex vc, int phits) const {
    const CreditLedger& lg = ledger_[static_cast<std::size_t>(li)];
    telem_.on_send(li, vc, phits, lg.occupied(vc), lg.occupied_port());
  }
  void observe_flit(int li) const { telem_.on_flit(li); }
  void observe_flit_stall(int li) const { telem_.on_flit_stall(li); }

  void deliver_data(Cycle now);
  void deliver_credits(Cycle now);
  void allocate(RouterId r, Cycle now);
  // The state gather, in two rounds around the head prefetches (see the
  // header comment). gather_state starts the loads of router r's armed
  // commitment slots, upstream links, arbiters, output units, port table
  // and node consumption ports; gather_targets, once those lines are on
  // their way, the ledgers the commitments name and the ring slots a
  // grant writes. Hints only: neither changes any value.
  void gather_state(RouterId r) const;
  void gather_targets(RouterId r) const;
  // The link phases' lookahead (TimingWheel::sweep_ahead while the state
  // gather is on): round by round, each starts the loads the next round
  // and the visit of link li wait on. Hints only.
  void gather_delivery(int round, int li) const;
  void gather_credits(int round, int li) const;
  void gather_send(int round, int li) const;
  void trace_packet(const Packet& pkt, PacketRef ref, Cycle now) const;
  bool stage1_pick(RouterId r, PortIndex ip, Cycle now, Request& req);
  bool find_action(RouterId r, PortIndex ip, VcIndex vc, Cycle now,
                   Request& req);
  static void commit_to(Commitment& c, PacketId pkt, const RouteOption& opt,
                        VcIndex out_vc, int out_position, bool safe) {
    c.pkt = pkt;
    c.out_port = opt.out_port;
    c.out_vc = out_vc;
    c.out_position = out_position;
    c.valiant_after = opt.valiant_after;
    c.kind_after = opt.kind_after;
    c.ejection = opt.ejection;
    c.is_escape = opt.is_escape;
    c.valiant_reached_after = opt.valiant_reached_after;
    c.safe = safe;
  }
  void grant(RouterId r, const Request& req, Cycle now);
  /// One output link's serializer turn; returns the cycle the link is next
  /// due in the serializer wheel, or TimingWheel::kIdle when it has no
  /// queued or streaming work left.
  Cycle send_link(RouterId r, int li, Cycle now);
  /// Serializer wheel due of a non-idle output unit: when its head can
  /// start, no earlier than `earliest`, clamped inside the ring — a start
  /// beyond the ring (an oversized packet) gets an early no-op visit that
  /// reschedules, never a late one.
  Cycle send_due(const OutputUnit& ou, Cycle earliest, Cycle now) const {
    return std::min(std::max(ou.next_ready(), earliest),
                    now + send_wheel_.span() - 1);
  }
  /// Output-side work count of router r (packets in its output units plus
  /// live link streams) moved by `delta`; keeps the busy-router gauge.
  void add_send_work(RouterId r, int delta) {
    std::int32_t& n = router_sends_[static_cast<std::size_t>(r)];
    const int was_busy = n > 0 ? 1 : 0;
    n += delta;
    send_routers_ += (n > 0 ? 1 : 0) - was_busy;
  }

  // --- Re-request pruning. A slot is (global input, VC); armed means
  // stage1_pick evaluates it. Disarming is legal only in states where
  // find_action provably returns false with no side effects (and no RNG
  // draw — skipping a draw would shift the shared per-router stream).
  // Each such state has one wake edge, which re-arms the slot only when
  // its event can clear the block:
  //   * empty VC -> the push that gives it a head again (a packet queued
  //     behind a head changes nothing the head reads, so that push arms
  //     nothing)
  //   * ejection head whose tail is still arriving (flit modes) -> the
  //     body flit that completes it. This holds for a fresh head too:
  //     route() at the destination returns the ejection option alone and
  //     draws nothing (the RoutingAlgorithm::route contract).
  //   * ejection head on a busy consumption port -> the wake calendar
  //     (schedule_eject_wake)
  //   * safe commitment blocked on downstream resources -> an entry on the
  //     committed link's waiter list, with the condition in the slot's
  //     Wait: the head's size and committed VC, rewritten on every sleep
  //     (deduped ones too: a new head may inherit its slot's entry). Space
  //     grows only on a credit return (on_credit, which also clears the
  //     on/off stop bit) and an output-buffer departure (start_send), and
  //     both fire the list. fire_waiters re-arms the slot only if
  //     can_send(vc, need) and can_reserve(size) now hold; otherwise the
  //     entry stays, since the check cannot pass before the next fire.
  //   * pure fresh head blocked on link resources -> an entry on every
  //     blocking link. These, and stale entries (the slot's Wait names
  //     another link), re-arm on any fire.
  void arm_slot(RouterId r, int gi, VcIndex vc) {
    std::uint64_t& bits = armed_[static_cast<std::size_t>(gi)];
    const std::uint64_t bit = std::uint64_t{1} << vc;
    if ((bits & bit) == 0) {
      if (bits == 0)
        armed_inputs_[static_cast<std::size_t>(r)] |=
            std::uint64_t{1}
            << (gi - in_index_[static_cast<std::size_t>(r)]);
      bits |= bit;
    }
  }
  void disarm_slot(RouterId r, int gi, VcIndex vc) {
    std::uint64_t& bits = armed_[static_cast<std::size_t>(gi)];
    const std::uint64_t bit = std::uint64_t{1} << vc;
    if ((bits & bit) != 0) {
      bits &= ~bit;
      if (bits == 0)
        armed_inputs_[static_cast<std::size_t>(r)] &=
            ~(std::uint64_t{1}
              << (gi - in_index_[static_cast<std::size_t>(r)]));
    }
  }
  /// Fires link li's waiter list (see above). kCreditEdge: a credit
  /// return, which has the ledger line at hand; otherwise a departure,
  /// which has the output unit's.
  template <bool kCreditEdge>
  void fire_waiters(RouterId r, int li);

  // Sleeps an ejection-blocked slot until the consumption port frees: the
  // blocking edge is a *timer* (Node::consume_free_at), so instead of
  // re-arbitrating every cycle the slot parks in the wake calendar — a
  // ring of per-cycle buckets — and re-arms exactly when can_consume's
  // busy condition clears. Slots whose wake lies beyond the ring
  // (oversized hand-injected packets) simply stay armed. Returns whether
  // the slot went to sleep.
  bool schedule_eject_wake(RouterId r, int gi, VcIndex vc, Cycle free_at,
                           Cycle now) {
    if (free_at - now >= static_cast<Cycle>(wake_ring_)) return false;
    disarm_slot(r, gi, vc);
    eject_wake_[static_cast<std::size_t>(free_at %
                                         static_cast<Cycle>(wake_ring_))]
        .push_back((static_cast<std::int32_t>(gi) << 6) | vc);
    return true;
  }

  // Lane pushes. A push that makes a lane non-empty files the link in its
  // phase's wheel under the new head's arrival (no phase pushes into the
  // wheel it is sweeping); a lane that was already non-empty is filed
  // under its older head.
  void push_credit(int li, const FlyingCredit& fc) {
    EventLane<FlyingCredit>& lane =
        links_[static_cast<std::size_t>(li)].credits;
    lane.push_back(fc);
    if (lane.size() == 1) credit_wheel_.add(li, fc.arrive);
  }
  void push_data(int li, const FlyingPacket& fp) {
    EventLane<FlyingPacket>& lane = links_[static_cast<std::size_t>(li)].data;
    lane.push_back(fp);
    if (lane.size() == 1) data_wheel_.add(li, fp.arrive);
  }

  // Flat-index helpers over the per-router offset tables (all carry a
  // sentinel entry, so spans are [index_[r], index_[r + 1])).
  int link_at(RouterId r, PortIndex p) const {
    return link_index_[static_cast<std::size_t>(r)] + p;
  }
  int net_ports(RouterId r) const {
    return link_index_[static_cast<std::size_t>(r) + 1] -
           link_index_[static_cast<std::size_t>(r)];
  }
  int input_at(RouterId r, PortIndex ip) const {
    return in_index_[static_cast<std::size_t>(r)] + ip;
  }
  /// Global input of node n's injection port.
  int injection_input(NodeId n) const {
    const RouterId r = topo_->router_of_node(n);
    return input_at(r, net_ports(r) + n % topo_->concentration());
  }
  int num_inputs(RouterId r) const {
    return in_index_[static_cast<std::size_t>(r) + 1] -
           in_index_[static_cast<std::size_t>(r)];
  }

  // Owns every container below (declared first, so it outlives them).
  Arena arena_;
  template <typename T>
  using Vec = std::pmr::vector<T>;  // draws from arena_

  SimConfig config_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<VcPolicy> policy_;
  std::unique_ptr<RoutingAlgorithm> routing_;
  VcSelection selection_ = VcSelection::kJsq;
  FlowControl flow_control_ = FlowControl::kPacket;
  BufferMgmt buffer_mgmt_ = BufferMgmt::kCredit;
  bool flit_ = false;  ///< cached is_flit_level(flow_control_)

  // --- Struct-of-arrays router state (flat, offset-table indexed). The
  // link→(owner, port) mapping is baked into the flat link index at
  // build() time: link i *is* (owner, port) = the pair link_at inverts,
  // and out_/ledger_ share that index — so the owning ledger of link i is
  // ledger_[i], with no per-cycle owner recovery.
  Vec<DirLink> links_{&arena_};  // by link index (router, network port)
  Vec<OutputUnit> out_{&arena_};  // by link index
  Vec<CreditLedger> ledger_{&arena_};  // by link index
  Vec<int> link_index_{&arena_};  // per router + sentinel
  Vec<InputBuffer> in_{&arena_};  // by global input index
  Vec<RoundRobinArbiter> in_arb_{&arena_};  // by global input index
  Vec<Commitment> commits_{&arena_};  // flat (input, vc) slots
  Vec<int> commit_index_{&arena_};  // per global input: first commit slot
  Vec<int> in_index_{&arena_};  // per router + sentinel
  Vec<std::int32_t> upstream_link_{&arena_};  // per global input (-1: inject)
  Vec<RoundRobinArbiter> out_arb_{&arena_};  // by global output index
  Vec<int> output_index_{&arena_};  // per router + sentinel
  Vec<Rng> rng_{&arena_};  // per router

  // --- Pending-work bookkeeping, per router.
  PacketPool pool_{&arena_};
  Vec<std::int32_t> router_sends_{&arena_};  // output-unit packets + streams

  // --- Flit-level flow control state (empty in packet mode).
  Vec<TransitTail> transit_{&arena_};  // by inbound link index
  Vec<LinkStream> streams_{&arena_};  // by outbound link index
  /// Inbound link a pool slot's tail streams in on (-1 = fully arrived or
  /// injected), recorded at grant so the outbound stream can find its
  /// TransitTail without a search. Grown lazily like traces_.
  Vec<std::int32_t> flit_src_link_{&arena_};

  // --- Event-driven link phases and the allocation worklist.
  Vec<RouterId> link_owner_{&arena_};  // per link: (owner, port) inverse
  // Wheels file links under the cycle they are next due: a data lane at
  // its head's arrival, a credit lane likewise, a serializer when its head
  // packet can start (or every cycle while a flit stream is live).
  TimingWheel data_wheel_{&arena_};  // inbound data lanes
  TimingWheel credit_wheel_{&arena_};  // credit lanes
  TimingWheel send_wheel_{&arena_};  // output serializers
  ActiveSet alloc_set_{&arena_};  // routers with armed slots
  Vec<std::int32_t> due_{&arena_};  // a lookahead sweep's bucket, in order
  /// Routers with occupied output units or live link streams (a gauge the
  /// telemetry on_step hook reads).
  std::int64_t send_routers_ = 0;

  // --- Allocator scratch, sized once in build(). The request lanes and
  // matched flags of the router being allocated are indexed by router-
  // local output and sized for the widest router, so one router's lanes
  // stay in cache.
  std::vector<RouteOption> options_;
  Vec<Vec<Request>> lanes_{&arena_};
  Vec<char> out_matched_{&arena_};
  Vec<std::int32_t> touched_{&arena_};  // lanes filled this iteration

  // --- Pruned-arbitration state (see arm_slot/disarm_slot above).
  Vec<std::uint64_t> armed_{&arena_};  // per global input: VC bitmask
  Vec<Wait> wait_{&arena_};  // per (input, VC) commit slot
  Vec<Vec<std::int32_t>> link_waiters_{&arena_};  // per link: (gi<<6)|vc
  Vec<std::int32_t> input_router_{&arena_};  // per global input: owning router
  // armed_inputs_[r] holds the input ports with any armed VC — zero means
  // the router has nothing to allocate, and stage 1 iterates set bits
  // instead of scanning every port. One word per router:
  // validate_config rejects topologies with more than 64 inputs a router.
  Vec<std::uint64_t> armed_inputs_{&arena_};  // per router
  // Uncommitted heads may sleep on their blocking resource's wake edges
  // only when re-running VC allocation is pure: a draw-free routing
  // algorithm (options are a function of packet and router alone) and a
  // VC selection function that consumes no randomness. Otherwise a
  // blocked fresh head must stay armed — the old engine re-drew from the
  // router RNG every cycle, and byte-equality pins that stream.
  bool fresh_prune_ok_ = false;
  // The state gather (gather_state) and the inputs of its selection.
  bool state_gather_ = false;
  std::size_t state_gather_bytes_ = 0;
  int max_ledger_vcs_ = 0;  // widest ledger: counters gather_targets loads
  int wake_ring_ = 1;  // wake-calendar span (max packet phits + margin)
  // Ring of per-cycle wake buckets, entries (gi<<6)|vc.
  Vec<Vec<std::int32_t>> eject_wake_{&arena_};

  std::unique_ptr<Nodes> nodes_;

  Metrics metrics_;
  Cycle last_grant_ = 0;
  std::int64_t escape_grants_ = 0;
  std::int64_t total_grants_ = 0;
  std::int64_t re_requests_ = 0;
  PacketId next_packet_id_ = 0;

  // Opt-in diagnostics: the per-pool-slot router-route side store is
  // recorded when either consumer is active — the FLEXNET_DEBUG_STUCK
  // stalled-traffic dump or the per-packet trace spans (set_trace).
  bool debug_stuck_ = false;
  bool record_routes_ = false;
  Vec<Vec<std::int16_t>> traces_{&arena_};  // by pool slot

  // Per-network telemetry: the only members a const hook can write, and
  // only the hooks above write them, each gated on telem_.enabled().
  mutable TelemetryCounters telem_{&arena_};
  mutable PhaseTimers phases_;
  TraceWriter* trace_ = nullptr;
  int trace_pid_ = 0;
};

}  // namespace flexnet
