// Slab pool of in-network packets.
//
// A packet is copied into the pool once, at injection, and every structure
// it passes through afterwards — input VC queues, output pipelines, link
// lanes — holds a 4-byte PacketRef into the slab instead of a ~64-byte
// Packet by value. The packet is mutated in place at each hop and released
// when it is consumed at its destination, so the pool's live count *is*
// the deadlock watchdog's packets-in-network quantity.
//
// Freed slots are recycled LIFO. Slot reuse is safe against stale
// bookkeeping because everything that outlives a hop (VC-allocation
// commitments) keys on the monotone PacketId, never on the slot index.
#pragma once

#include <memory_resource>
#include <vector>

#include "buffers/packet.hpp"
#include "common/check.hpp"

namespace flexnet {

/// Index of a live packet in the pool slab.
using PacketRef = std::int32_t;
inline constexpr PacketRef kInvalidPacketRef = -1;

class PacketPool {
 public:
  explicit PacketPool(
      std::pmr::memory_resource* mr = std::pmr::get_default_resource())
      : slab_(mr), free_(mr) {}

  PacketRef alloc(const Packet& pkt) {
    PacketRef ref;
    if (!free_.empty()) {
      ref = free_.back();
      free_.pop_back();
      slab_[static_cast<std::size_t>(ref)] = pkt;
#ifndef NDEBUG
      FLEXNET_DCHECK(freed_[static_cast<std::size_t>(ref)] == 1);
      freed_[static_cast<std::size_t>(ref)] = 0;
#endif
    } else {
      ref = static_cast<PacketRef>(slab_.size());
      slab_.push_back(pkt);
#ifndef NDEBUG
      freed_.push_back(0);
#endif
    }
    ++live_;
    return ref;
  }

  void release(PacketRef ref) {
    FLEXNET_DCHECK(ref >= 0 && static_cast<std::size_t>(ref) < slab_.size());
#ifndef NDEBUG
    // Double-release would alias two live packets onto one slot and skew
    // live() — the watchdog's packets-in-network count. Fail loud in
    // debug builds.
    FLEXNET_DCHECK(freed_[static_cast<std::size_t>(ref)] == 0);
    freed_[static_cast<std::size_t>(ref)] = 1;
#endif
    free_.push_back(ref);
    --live_;
  }

  Packet& operator[](PacketRef ref) {
    FLEXNET_DCHECK(ref >= 0 && static_cast<std::size_t>(ref) < slab_.size());
    return slab_[static_cast<std::size_t>(ref)];
  }
  const Packet& operator[](PacketRef ref) const {
    FLEXNET_DCHECK(ref >= 0 && static_cast<std::size_t>(ref) < slab_.size());
    return slab_[static_cast<std::size_t>(ref)];
  }

  /// Packets currently allocated (injected but not yet consumed).
  std::int64_t live() const { return live_; }

  /// High-water slot count (allocated slab size).
  std::size_t slots() const { return slab_.size(); }

 private:
  std::pmr::vector<Packet> slab_;
  std::pmr::vector<PacketRef> free_;
#ifndef NDEBUG
  /// Per-slot freed flag (debug only).
  std::pmr::vector<std::uint8_t> freed_{free_.get_allocator()};
#endif
  std::int64_t live_ = 0;
};

}  // namespace flexnet
