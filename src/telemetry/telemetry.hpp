// Deterministic counter/gauge registry for the active-set core.
//
// One TelemetryCounters instance lives inside each Network and is updated
// from the hot path by Network's const hook member functions, each behind
// the runtime enable (off until a caller turns it on), so a telemetry-off
// run pays one never-taken branch per hook. Counters are pure
// observations: a hook runs with a const Network, so it reads simulation
// state and can write nothing but the counters — enabling them cannot
// perturb results (test_telemetry.cpp asserts SimResult bit-equality
// on/off). A counter is an id below plus one (id, name) entry in its
// group's table in telemetry.cpp, which render() walks.
//
// Determinism contract: every counter is an integer updated only by the
// simulation's own deterministic event order, and merge() is elementwise
// integer addition. Jobs of a sweep own disjoint Networks, so the sweep-
// level aggregate is a sum over disjoint job sets — commutative, hence
// identical for any worker count, job completion order, or shard split
// (test_shard_merge.cpp asserts byte-identical render() output).
#pragma once

#include <array>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace flexnet {

/// Per-router, per-link, and per-(link, VC) counters plus network-wide
/// step gauges, rendered as README "Observability" lists them.
class TelemetryCounters {
 public:
  // Counter ids per group, in storage order; each last one is the arity.
  enum Router : int { kRequests, kGrants, kConflicts, kInjections, kRouterN };
  enum Link : int {
    kDeliveredPackets, kDeliveredPhits, kSentPhits, kCreditPhits,
    kLinkOccupancy, kFlits, kFlitStalls, kTransitFlits, kLinkN
  };
  enum Vc : int { kVcSends, kVcOccupancy, kVcN };
  enum Net : int {
    kSteps, kActiveLinks, kAllocRouters, kSendRouters, kLivePackets, kNetN
  };

  /// The counter vectors draw from `mr` (a Network passes its arena);
  /// copies use the default resource.
  explicit TelemetryCounters(
      std::pmr::memory_resource* mr = std::pmr::get_default_resource());

  /// Sizes every counter group for a network of `routers` routers and
  /// `link_vcs.size()` directed links with link_vcs[l] VCs each. Resets
  /// all values. Must be called before any update hook.
  void configure(int routers, const std::vector<int>& link_vcs);

  bool configured() const { return routers_ > 0 || links_ > 0; }
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int routers() const { return routers_; }
  int links() const { return links_; }
  int vcs_of_link(int link) const { return lane(link + 1, 0) - lane(link, 0); }

  // --- Hot-path update hooks (call only when enabled()).

  /// Stage-1 proposals that reached output arbitration this iteration.
  void on_requests(int router, int n) { router_[router][kRequests] += n; }
  /// Proposals that lost output arbitration (will re-request).
  void on_conflicts(int router, int n) { router_[router][kConflicts] += n; }
  void on_grant(int router) { ++router_[router][kGrants]; }
  void on_injection(int router) { ++router_[router][kInjections]; }

  /// A packet sent into link `link` on VC `vc`; `vc_occupied` and
  /// `port_occupied` are the sender-side credit-ledger occupancies (phits)
  /// *after* the send — the downstream buffer occupancy attributable to
  /// this sender, the signal the FlexVC analysis argues from.
  void on_send(int link, VcIndex vc, int phits, int vc_occupied,
               int port_occupied) {
    std::int64_t* slot = vc_[lane(link, vc)];
    ++slot[kVcSends];
    slot[kVcOccupancy] += vc_occupied;
    link_[link][kSentPhits] += phits;
    link_[link][kLinkOccupancy] += port_occupied;
  }

  /// A packet popped off link `link` into the downstream input buffer.
  void on_delivery(int link, int phits) {
    ++link_[link][kDeliveredPackets];
    link_[link][kDeliveredPhits] += phits;
  }

  /// Credits returned to link `link`'s sender-side ledger.
  void on_credit(int link, int phits) { link_[link][kCreditPhits] += phits; }

  // --- Flit-level flow control (flow_control=wormhole|vct). All three are
  // zero in packet mode, so the packet-mode snapshot is unchanged.

  /// One flit serialized onto link `link`.
  void on_flit(int link) { ++link_[link][kFlits]; }
  /// A link stream that could not emit this cycle (tail not yet arrived,
  /// or a wormhole body flit out of downstream space).
  void on_flit_stall(int link) { ++link_[link][kFlitStalls]; }
  /// A body flit that cut through link `link`'s receiver without entering
  /// its input buffer (the packet was already granted onward).
  void on_flit_transit(int link) { ++link_[link][kTransitFlits]; }

  /// Sampled once per Network::step before the sweeps: active-set sizes
  /// and live pooled packets at the start of the cycle.
  void on_step(std::size_t active_links, std::size_t alloc_routers,
               std::size_t send_routers, std::int64_t live_packets) {
    ++net_[kSteps];
    net_[kActiveLinks] += static_cast<std::int64_t>(active_links);
    net_[kAllocRouters] += static_cast<std::int64_t>(alloc_routers);
    net_[kSendRouters] += static_cast<std::int64_t>(send_routers);
    net_[kLivePackets] += live_packets;
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
  std::int64_t steps() const { return net_[kSteps]; }
  std::int64_t active_links_sum() const { return net_[kActiveLinks]; }
  std::int64_t alloc_routers_sum() const { return net_[kAllocRouters]; }
  std::int64_t send_routers_sum() const { return net_[kSendRouters]; }
  std::int64_t live_packets_sum() const { return net_[kLivePackets]; }
  std::int64_t router_grants(int r) const { return router_[r][kGrants]; }
  std::int64_t total_requests() const { return router_.total(kRequests); }
  std::int64_t total_grants() const { return router_.total(kGrants); }
  std::int64_t total_conflicts() const { return router_.total(kConflicts); }

 private:
  /// One group's counters, row-major: row i holds the kArity counters of
  /// one router, link or (link, VC) lane.
  template <int kArity>
  struct Rows {
    explicit Rows(std::pmr::memory_resource* mr) : values(mr) {}
    std::int64_t* operator[](int row) { return values.data() + at(row); }
    const std::int64_t* operator[](int row) const {
      return values.data() + at(row);
    }
    static std::size_t at(int row) { return std::size_t(row) * kArity; }
    void add(int row, const std::int64_t* from) {
      for (int k = 0; k < kArity; ++k) (*this)[row][k] += from[k];
    }
    std::int64_t total(int id) const {
      std::int64_t sum = 0;
      for (auto i = std::size_t(id); i < values.size(); i += kArity)
        sum += values[i];
      return sum;
    }
    std::pmr::vector<std::int64_t> values;
  };

  /// Adds `other` per id; its shape must fit inside this one's.
  void add(const TelemetryCounters& other);
  int lane(int link, int vc) const {
    return vc_index_[static_cast<std::size_t>(link)] + vc;
  }

  bool enabled_ = false;
  int routers_ = 0;
  int links_ = 0;
  std::pmr::vector<int> vc_index_;  // per link + sentinel -> first lane
  Rows<kRouterN> router_;
  Rows<kLinkN> link_;
  Rows<kVcN> vc_;
  std::array<std::int64_t, kNetN> net_{};
};

}  // namespace flexnet
