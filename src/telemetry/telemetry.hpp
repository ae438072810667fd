// Deterministic counter/gauge registry for the active-set core.
//
// One TelemetryCounters instance lives inside each Network and is updated
// from the hot path by Network's const hook member functions, each behind
// the runtime enable (off until a caller turns it on), so a telemetry-off
// run pays one never-taken branch per hook. Counters are pure
// observations: a hook runs with a const Network, so it reads simulation
// state and can write nothing but the counters — enabling them cannot
// perturb results (test_telemetry.cpp asserts SimResult bit-equality
// on/off).
//
// Determinism contract: every counter is an integer updated only by the
// simulation's own deterministic event order, and merge() is elementwise
// integer addition. Jobs of a sweep own disjoint Networks, so the sweep-
// level aggregate is a sum over disjoint job sets — commutative, hence
// identical for any worker count, job completion order, or shard split
// (test_shard_merge.cpp asserts byte-identical render() output).
#pragma once

#include <cstdint>
#include <memory_resource>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace flexnet {

/// Per-router, per-link, and per-(link, VC) counters plus network-wide
/// step gauges. Naming scheme of the rendered snapshot (README
/// "Observability"):
///
///   net.steps / net.<set>.sum           step count and active-set gauges
///   router.<r>.requests|grants|...     per-router allocator counters
///   link.<l>.delivered_packets|...     per-link traffic and occupancy
///   link.<l>.vc.<v>.sends|...          per-VC sends and credit occupancy
class TelemetryCounters {
 public:
  /// The counter vectors draw from `mr` (a Network passes its arena);
  /// copies use the default resource.
  explicit TelemetryCounters(
      std::pmr::memory_resource* mr = std::pmr::get_default_resource());

  /// Sizes every counter vector for a network of `routers` routers and
  /// `link_vcs.size()` directed links with link_vcs[l] VCs each. Resets
  /// all values. Must be called before any update hook.
  void configure(int routers, const std::vector<int>& link_vcs);

  bool configured() const { return routers_ > 0 || links_ > 0; }
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int routers() const { return routers_; }
  int links() const { return links_; }
  int vcs_of_link(int link) const {
    return vc_index_[static_cast<std::size_t>(link) + 1] -
           vc_index_[static_cast<std::size_t>(link)];
  }

  // --- Hot-path update hooks (call only when enabled()).

  /// Stage-1 proposals that reached output arbitration this iteration.
  void on_requests(int router, int n) {
    router_requests_[static_cast<std::size_t>(router)] += n;
  }
  /// Proposals that lost output arbitration (will re-request).
  void on_conflicts(int router, int n) {
    router_conflicts_[static_cast<std::size_t>(router)] += n;
  }
  void on_grant(int router) {
    ++router_grants_[static_cast<std::size_t>(router)];
  }
  void on_injection(int router) {
    ++router_injections_[static_cast<std::size_t>(router)];
  }

  /// A packet sent into link `link` on VC `vc`; `vc_occupied` and
  /// `port_occupied` are the sender-side credit-ledger occupancies (phits)
  /// *after* the send — the downstream buffer occupancy attributable to
  /// this sender, the signal the FlexVC analysis argues from.
  void on_send(int link, VcIndex vc, int phits, int vc_occupied,
               int port_occupied) {
    const std::size_t slot = static_cast<std::size_t>(
        vc_index_[static_cast<std::size_t>(link)] + vc);
    ++vc_sends_[slot];
    vc_occupancy_sum_[slot] += vc_occupied;
    link_sent_phits_[static_cast<std::size_t>(link)] += phits;
    link_occupancy_sum_[static_cast<std::size_t>(link)] += port_occupied;
  }

  /// A packet popped off link `link` into the downstream input buffer.
  void on_delivery(int link, int phits) {
    ++link_delivered_packets_[static_cast<std::size_t>(link)];
    link_delivered_phits_[static_cast<std::size_t>(link)] += phits;
  }

  /// Credits returned to link `link`'s sender-side ledger.
  void on_credit(int link, int phits) {
    link_credit_phits_[static_cast<std::size_t>(link)] += phits;
  }

  // --- Flit-level flow control (flow_control=wormhole|vct). All three are
  // zero in packet mode, so the packet-mode snapshot is unchanged.

  /// One flit serialized onto link `link`.
  void on_flit(int link) {
    ++link_flits_[static_cast<std::size_t>(link)];
  }
  /// A link stream that could not emit this cycle (tail not yet arrived,
  /// or a wormhole body flit out of downstream space).
  void on_flit_stall(int link) {
    ++link_flit_stalls_[static_cast<std::size_t>(link)];
  }
  /// A body flit that cut through link `link`'s receiver without entering
  /// its input buffer (the packet was already granted onward).
  void on_flit_transit(int link) {
    ++link_transit_flits_[static_cast<std::size_t>(link)];
  }

  /// Sampled once per Network::step before the sweeps: active-set sizes
  /// and live pooled packets at the start of the cycle.
  void on_step(std::size_t active_links, std::size_t alloc_routers,
               std::size_t send_routers, std::int64_t live_packets) {
    ++steps_;
    active_links_sum_ += static_cast<std::int64_t>(active_links);
    alloc_routers_sum_ += static_cast<std::int64_t>(alloc_routers);
    send_routers_sum_ += static_cast<std::int64_t>(send_routers);
    live_packets_sum_ += live_packets;
  }

  // --- Aggregation and rendering.

  /// Elementwise addition by (router, link, vc) id. An unconfigured
  /// (empty) side is the identity. When shapes differ (a sweep whose
  /// series use different arrangements or scales), this side first widens
  /// to the union shape — per-id addition in a common index space stays
  /// commutative and associative, so aggregates remain order-independent.
  void merge(const TelemetryCounters& other);

  /// Deterministic text snapshot: one "name value" line per counter in a
  /// fixed order. Byte-identical aggregates <=> identical counters, which
  /// is how the determinism tests compare worker and shard splits.
  std::string render() const;

  // Raw accessors for tests and derived metrics.
  std::int64_t steps() const { return steps_; }
  std::int64_t active_links_sum() const { return active_links_sum_; }
  std::int64_t alloc_routers_sum() const { return alloc_routers_sum_; }
  std::int64_t send_routers_sum() const { return send_routers_sum_; }
  std::int64_t live_packets_sum() const { return live_packets_sum_; }
  std::int64_t router_grants(int r) const {
    return router_grants_[static_cast<std::size_t>(r)];
  }
  std::int64_t total_requests() const;
  std::int64_t total_grants() const;
  std::int64_t total_conflicts() const;

 private:
  void expand_to(int routers, const std::vector<int>& link_vcs);

  bool enabled_ = false;
  int routers_ = 0;
  int links_ = 0;
  std::pmr::vector<int> vc_index_;  // per link + sentinel -> per-VC slot

  std::pmr::vector<std::int64_t> router_requests_;
  std::pmr::vector<std::int64_t> router_conflicts_;
  std::pmr::vector<std::int64_t> router_grants_;
  std::pmr::vector<std::int64_t> router_injections_;

  std::pmr::vector<std::int64_t> link_delivered_packets_;
  std::pmr::vector<std::int64_t> link_delivered_phits_;
  std::pmr::vector<std::int64_t> link_sent_phits_;
  std::pmr::vector<std::int64_t> link_credit_phits_;
  std::pmr::vector<std::int64_t> link_occupancy_sum_;
  std::pmr::vector<std::int64_t> link_flits_;
  std::pmr::vector<std::int64_t> link_flit_stalls_;
  std::pmr::vector<std::int64_t> link_transit_flits_;

  std::pmr::vector<std::int64_t> vc_sends_;
  std::pmr::vector<std::int64_t> vc_occupancy_sum_;

  std::int64_t steps_ = 0;
  std::int64_t active_links_sum_ = 0;
  std::int64_t alloc_routers_sum_ = 0;
  std::int64_t send_routers_sum_ = 0;
  std::int64_t live_packets_sum_ = 0;
};

}  // namespace flexnet
