// Input buffer: per-VC packet-ref queues with phit-granular capacity
// accounting. One concrete class covers both organizations of the paper
// (SII, Fig 2) with no virtual dispatch on the hot path:
//   * static  — shared_capacity == 0: a fixed private capacity per VC;
//   * DAMQ    — shared_capacity  > 0: a private reservation per VC plus a
//               pool shared by all VCs (private space is consumed first,
//               matching the sender-side CreditLedger exactly).
//
// Queues hold PacketRef slots, not packets: the payload stays in the
// PacketPool slab and a push/pop moves 8 bytes. The shared-pool usage is
// tracked incrementally on push/pop (the same delta rule as
// CreditLedger::add) instead of recomputed by a per-call VC scan.
//
// Layout: the whole per-VC state of a port is one allocation of 32-bit
// words — a header per VC (occupancy plus its ring's head, size, mask and
// base), then every VC's power-of-two ring of (ref, phits) slot pairs. A
// head lookup touches one header and one slot of a single block instead
// of chasing a per-VC heap ring. A full ring doubles in place of the
// block, relocating the other VCs' live entries unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "buffers/packet_pool.hpp"
#include "common/check.hpp"

namespace flexnet {

/// One queued packet: its pool slot and its size in phits (denormalized so
/// occupancy accounting never touches the slab).
struct BufferSlot {
  PacketRef ref = kInvalidPacketRef;
  std::int32_t phits = 0;
};

class InputBuffer final {
 public:
  /// Allocator-aware: inside a pmr container the word block comes from the
  /// container's resource (the Network's arena); standalone buffers use the
  /// default resource.
  using allocator_type = std::pmr::polymorphic_allocator<std::int32_t>;

  /// `shared_capacity` == 0 builds a statically partitioned buffer;
  /// > 0 builds a DAMQ with `private_per_vc` reserved per VC.
  InputBuffer(int num_vcs, int private_per_vc, int shared_capacity = 0)
      : InputBuffer(std::allocator_arg, allocator_type{}, num_vcs,
                    private_per_vc, shared_capacity) {}
  InputBuffer(std::allocator_arg_t, const allocator_type& alloc, int num_vcs,
              int private_per_vc, int shared_capacity = 0)
      : num_vcs_(num_vcs),
        private_per_vc_(private_per_vc),
        shared_capacity_(shared_capacity),
        words_(static_cast<std::size_t>(num_vcs) *
                   (kHeader + kSlotWords * kInitialSlots),
               0, alloc) {
    FLEXNET_CHECK(num_vcs >= 1);
    for (VcIndex vc = 0; vc < num_vcs; ++vc) {
      std::int32_t* h = header(vc);
      h[kMask] = kInitialSlots - 1;
      h[kBase] = num_vcs * kHeader + vc * kSlotWords * kInitialSlots;
    }
  }
  InputBuffer(std::allocator_arg_t, const allocator_type& alloc,
              InputBuffer&& o)
      : num_vcs_(o.num_vcs_),
        private_per_vc_(o.private_per_vc_),
        shared_capacity_(o.shared_capacity_),
        shared_used_(o.shared_used_),
        total_occupancy_(o.total_occupancy_),
        words_(std::move(o.words_), alloc) {}

  int num_vcs() const { return num_vcs_; }
  bool is_damq() const { return shared_capacity_ > 0; }
  int private_per_vc() const { return private_per_vc_; }
  int shared_capacity() const { return shared_capacity_; }

  /// Space check used by the receiver on arrival; the sender-side
  /// CreditLedger mirrors the same rule so a granted send never overflows.
  bool can_accept(VcIndex vc, int phits) const {
    return free_for(vc) >= phits;
  }

  /// Free phits currently available to this VC: its private remainder plus
  /// any shared remainder.
  int free_for(VcIndex vc) const {
    const int occ = header(vc)[kOcc];
    const int private_free = private_per_vc_ - std::min(occ, private_per_vc_);
    return private_free + shared_capacity_ - shared_used_;
  }

  /// Total capacity of the port's memory in phits.
  int total_capacity() const {
    return private_per_vc_ * num_vcs() + shared_capacity_;
  }

  void push(VcIndex vc, PacketRef ref, int phits) {
    FLEXNET_DCHECK(can_accept(vc, phits));
    if (header(vc)[kSize] > header(vc)[kMask]) grow(vc);
    std::int32_t* h = header(vc);
    std::int32_t* s = slot(h, h[kSize]);
    s[kRef] = ref;
    s[kPhits] = phits;
    ++h[kSize];
    account(h, phits);
  }

  /// Appends one phit to the newest queued packet on `vc` (a body flit of
  /// a flit-level stream joining its head). The queue tail is always the
  /// packet whose flits are still arriving — link FIFO order guarantees
  /// body flits of one packet arrive contiguously per VC; the always-on
  /// check below is that no-interleaving invariant.
  void add_phit(VcIndex vc, PacketRef ref) {
    std::int32_t* h = header(vc);
    FLEXNET_CHECK(h[kSize] > 0 && slot(h, h[kSize] - 1)[kRef] == ref);
    FLEXNET_DCHECK(can_accept(vc, 1));
    slot(h, h[kSize] - 1)[kPhits] += 1;
    account(h, 1);
  }

  bool empty(VcIndex vc) const { return header(vc)[kSize] == 0; }

  /// Head-of-queue packet ref, or kInvalidPacketRef. Only the head can be
  /// routed: this is the FIFO order whose blocking FlexVC mitigates by
  /// spreading packets over more VCs (not by reordering within one).
  PacketRef front(VcIndex vc) const {
    const std::int32_t* h = header(vc);
    return h[kSize] == 0 ? kInvalidPacketRef : slot(h, 0)[kRef];
  }

  /// Phits of the head packet already buffered here (under flit-level
  /// flow control a head can be routed before its tail arrives; ejection
  /// waits for the full count).
  int front_phits(VcIndex vc) const {
    const std::int32_t* h = header(vc);
    return h[kSize] == 0 ? 0 : slot(h, 0)[kPhits];
  }

  BufferSlot pop(VcIndex vc) {
    std::int32_t* h = header(vc);
    FLEXNET_DCHECK(h[kSize] > 0);
    const std::int32_t* s = slot(h, 0);
    const BufferSlot out{s[kRef], s[kPhits]};
    h[kHead] = (h[kHead] + 1) & h[kMask];
    --h[kSize];
    account(h, -out.phits);
    return out;
  }

  /// Occupied phits in one VC / in the whole port.
  int occupancy(VcIndex vc) const { return header(vc)[kOcc]; }
  int occupancy() const { return total_occupancy_; }

  /// Phits drawn from the shared pool (overflow beyond private space).
  int shared_used() const { return shared_used_; }

  /// Packets queued in one VC.
  int packets(VcIndex vc) const { return header(vc)[kSize]; }

  /// Starts loading the VC headers (a hint: the allocator issues it for
  /// every armed input of a router before evaluating any of them).
  void prefetch() const { __builtin_prefetch(words_.data()); }

 private:
  // Per-VC header words, then per-slot words.
  enum : int { kOcc, kHead, kSize, kMask, kBase, kHeader };
  enum : int { kRef, kPhits, kSlotWords };
  static constexpr int kInitialSlots = 4;  // power of two

  std::int32_t* header(VcIndex vc) {
    return words_.data() + static_cast<std::size_t>(vc) * kHeader;
  }
  const std::int32_t* header(VcIndex vc) const {
    return words_.data() + static_cast<std::size_t>(vc) * kHeader;
  }
  /// The i-th queued slot (from the head) of the VC whose header is `h`.
  std::int32_t* slot(const std::int32_t* h, int i) {
    return words_.data() + h[kBase] + ((h[kHead] + i) & h[kMask]) * kSlotWords;
  }
  const std::int32_t* slot(const std::int32_t* h, int i) const {
    return words_.data() + h[kBase] + ((h[kHead] + i) & h[kMask]) * kSlotWords;
  }

  /// Moves `delta` phits into (or out of) a VC: private space first, the
  /// remainder from the shared pool.
  void account(std::int32_t* h, int delta) {
    const int spilled_before = std::max(0, h[kOcc] - private_per_vc_);
    h[kOcc] += delta;
    shared_used_ += std::max(0, h[kOcc] - private_per_vc_) - spilled_before;
    total_occupancy_ += delta;
  }

  /// Doubles `vc`'s full ring: rebuilds the block with every ring
  /// unwrapped to head 0 at its new base, other VCs' capacities unchanged.
  void grow(VcIndex vc) {
    std::pmr::vector<std::int32_t> next(
        words_.size() +
            static_cast<std::size_t>(header(vc)[kMask] + 1) * kSlotWords,
        0, words_.get_allocator());
    int base = num_vcs_ * kHeader;
    for (VcIndex v = 0; v < num_vcs_; ++v) {
      const std::int32_t* h = header(v);
      std::int32_t* nh = next.data() + static_cast<std::size_t>(v) * kHeader;
      const int cap = (h[kMask] + 1) * (v == vc ? 2 : 1);
      nh[kOcc] = h[kOcc];
      nh[kHead] = 0;
      nh[kSize] = h[kSize];
      nh[kMask] = cap - 1;
      nh[kBase] = base;
      for (int i = 0; i < h[kSize]; ++i) {
        const std::int32_t* s = slot(h, i);
        next[static_cast<std::size_t>(base + i * kSlotWords + kRef)] = s[kRef];
        next[static_cast<std::size_t>(base + i * kSlotWords + kPhits)] =
            s[kPhits];
      }
      base += cap * kSlotWords;
    }
    words_ = std::move(next);
  }

  int num_vcs_;
  int private_per_vc_;
  int shared_capacity_;
  int shared_used_ = 0;
  int total_occupancy_ = 0;
  std::pmr::vector<std::int32_t> words_;
};

}  // namespace flexnet
