// Sender-side credit ledger for one output port.
//
// Mirrors the downstream input buffer's geometry (per-VC private capacity
// plus an optional shared pool) so that a send granted by the ledger can
// never overflow the receiver. Statically partitioned buffers are the
// shared_capacity == 0 case.
//
// FlexVC-minCred (paper SIII-D) additionally tracks, per VC, how many of
// the occupied phits belong to minimally routed packets. Credits returned
// by the receiver carry the packet's RouteKind flag — the paper's "one
// additional flag per credit packet and an additional credit counter per
// output port".
//
// The per-VC counters sit inline (up to kMaxVcs VCs), so a ledger is one
// flat object in the network's link-indexed array: a credit check reads
// the header and one VC's counter pair from the same block. Every count is
// bounded by the port's capacity, which validate_config keeps within
// kMaxPortPhits, so counters and header fields are 16 bits wide.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/check.hpp"
#include "common/prefetch.hpp"
#include "common/types.hpp"

namespace flexnet {

class CreditLedger {
 public:
  /// Most VCs one ledger tracks (validate_config rejects arrangements
  /// with more VCs per network port).
  static constexpr int kMaxVcs = 16;
  /// Largest port capacity, in phits, one ledger tracks: every counter
  /// fits 16 bits (validate_config rejects larger network ports).
  static constexpr int kMaxPortPhits = INT16_MAX;

  CreditLedger(int num_vcs, int private_per_vc, int shared_capacity)
      : num_vcs_(static_cast<std::int16_t>(num_vcs)),
        private_per_vc_(static_cast<std::int16_t>(private_per_vc)),
        shared_capacity_(static_cast<std::int16_t>(shared_capacity)) {
    FLEXNET_CHECK_MSG(num_vcs >= 1 && num_vcs <= kMaxVcs,
                      "a credit ledger tracks 1 to 16 VCs");
    FLEXNET_CHECK_MSG(private_per_vc >= 0 && shared_capacity >= 0 &&
                          std::int64_t{private_per_vc} * num_vcs +
                                  shared_capacity <=
                              kMaxPortPhits,
                      "a credit ledger tracks at most 32767 phits a port");
  }

  int num_vcs() const { return num_vcs_; }

  /// Starts loading the lines that hold the header and the first `vcs`
  /// counters. The caller passes the count: reading num_vcs() here would
  /// wait on the very line being prefetched.
  void prefetch(int vcs) const { prefetch_lines(this, vc_.data() + vcs); }

  /// Switches the ledger to on/off backpressure (buffer_mgmt=on_off): the
  /// downstream port is modeled by a single stop/go bit with hysteresis —
  /// sends stop once port free space falls below `off_threshold` and
  /// resume when it recovers to `on_threshold`. The exact per-VC
  /// free-space floor stays enforced underneath, so the coarse signal can
  /// never overflow the receiver; the behavioral difference is the
  /// hysteresis window in which a "go" port keeps admitting packets the
  /// exact ledger would already pace. Not calling this (the default)
  /// leaves behavior byte-identical to exact credits.
  void enable_on_off(int off_threshold, int on_threshold) {
    FLEXNET_CHECK(off_threshold >= 0 && on_threshold >= off_threshold &&
                  on_threshold <= kMaxPortPhits);
    on_off_ = true;
    off_threshold_ = static_cast<std::int16_t>(off_threshold);
    on_threshold_ = static_cast<std::int16_t>(on_threshold);
    update_off_bit();
  }

  bool on_off_enabled() const { return on_off_; }
  /// True while the downstream port signals "stop".
  bool is_off() const { return off_; }

  /// Free phits the sender may use for this VC right now.
  int free_for(VcIndex vc) const {
    const int occ = vc_[static_cast<std::size_t>(vc)].occupied;
    const int per_vc = private_per_vc_;
    const int private_free = per_vc - std::min(occ, per_vc);
    return private_free + shared_capacity_ - shared_used_;
  }

  bool can_send(VcIndex vc, int phits) const {
    return (!on_off_ || !off_) && free_for(vc) >= phits;
  }

  void on_send(VcIndex vc, int phits, RouteKind kind) {
    FLEXNET_DCHECK(can_send(vc, phits));
    add(vc, phits, kind);
  }

  /// Credit returned by the receiver when a packet leaves its buffer.
  void on_credit(VcIndex vc, int phits, RouteKind kind) {
    add(vc, -phits, kind);
    FLEXNET_DCHECK(vc_[static_cast<std::size_t>(vc)].occupied >= 0);
  }

  /// Downstream occupancy attributable to this sender, in phits. This is the
  /// congestion signal Piggyback compares (SII: "each router measures the
  /// occupancy (credits) of its global ports").
  int occupied(VcIndex vc) const {
    return vc_[static_cast<std::size_t>(vc)].occupied;
  }
  int occupied_port() const { return occupied_port_; }

  /// minCred counters: occupancy of minimally routed packets only.
  int occupied_min(VcIndex vc) const {
    return vc_[static_cast<std::size_t>(vc)].occupied_min;
  }
  int occupied_min_port() const { return occupied_min_port_; }

  int capacity_port() const {
    return private_per_vc_ * num_vcs() + shared_capacity_;
  }

 private:
  // Sums are taken in int and stored back: every stored count stays
  // within the port capacity, so the narrowing never truncates.
  void add(VcIndex vc, int delta, RouteKind kind) {
    VcCount& c = vc_[static_cast<std::size_t>(vc)];
    const int occupied = c.occupied + delta;
    const int overflow_change = std::max(0, occupied - private_per_vc_) -
                                std::max(0, c.occupied - private_per_vc_);
    c.occupied = static_cast<std::int16_t>(occupied);
    occupied_port_ = static_cast<std::int16_t>(occupied_port_ + delta);
    shared_used_ = static_cast<std::int16_t>(shared_used_ + overflow_change);
    if (kind == RouteKind::kMinimal) {
      c.occupied_min = static_cast<std::int16_t>(c.occupied_min + delta);
      occupied_min_port_ =
          static_cast<std::int16_t>(occupied_min_port_ + delta);
    }
    if (on_off_) update_off_bit();
  }

  void update_off_bit() {
    const int free = capacity_port() - occupied_port_;
    if (off_) {
      if (free >= on_threshold_) off_ = false;
    } else if (free < off_threshold_) {
      off_ = true;
    }
  }

  /// Occupied phits of one VC, all and minimally routed only.
  struct VcCount {
    std::int16_t occupied = 0;
    std::int16_t occupied_min = 0;
  };

  std::int16_t num_vcs_;
  std::int16_t private_per_vc_;
  std::int16_t shared_capacity_;
  std::int16_t shared_used_ = 0;
  std::int16_t occupied_port_ = 0;
  std::int16_t occupied_min_port_ = 0;
  std::int16_t off_threshold_ = 0;
  std::int16_t on_threshold_ = 0;
  bool on_off_ = false;
  bool off_ = false;
  std::array<VcCount, kMaxVcs> vc_{};
};
static_assert(sizeof(CreditLedger) <= 96,
              "a ledger's header and counters stay 16 bits wide");

}  // namespace flexnet
