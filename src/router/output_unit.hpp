// Output unit of a combined input-output buffered router: the router
// pipeline delay, a small per-port output buffer, and the link serializer.
//
// Grants reserve output-buffer space immediately; the packet becomes visible
// in the buffer after the router pipeline latency (Table V: 5 cycles) and is
// then serialized onto the link at one phit per cycle. The crossbar may be
// clocked faster than the link (router speedup 2x), which is modeled by
// allowing `speedup` grants per link cycle into this buffer while the
// serializer drains at link rate.
//
// The pipeline stores PacketRef slots (payloads stay in the PacketPool
// slab) in a flat ring — entries are pushed with non-decreasing ready
// cycles, so head-pop order is ready order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory_resource>
#include <utility>

#include "buffers/packet_pool.hpp"
#include "common/check.hpp"
#include "common/event_lane.hpp"
#include "common/types.hpp"

namespace flexnet {

class OutputUnit final {
 public:
  /// Allocator-aware: the pipeline ring draws from the container's
  /// resource (the Network's arena) or, standalone, the default one.
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;

  OutputUnit(int buffer_capacity, int pipeline_latency,
             const allocator_type& alloc = {})
      : capacity_(buffer_capacity),
        pipeline_latency_(pipeline_latency),
        pipeline_(alloc) {}
  OutputUnit(OutputUnit&& o, const allocator_type& alloc)
      : capacity_(o.capacity_),
        pipeline_latency_(o.pipeline_latency_),
        occupancy_(o.occupancy_),
        link_busy_until_(o.link_busy_until_),
        pipeline_(std::move(o.pipeline_), alloc) {}

  /// Space check used by the allocator before granting.
  bool can_reserve(int phits) const { return occupancy_ + phits <= capacity_; }

  /// Accepts a granted packet of `phits` phits: space is reserved now; the
  /// packet reaches the buffer head after the pipeline latency.
  void accept(PacketRef ref, int phits, VcIndex downstream_vc, Cycle now) {
    FLEXNET_DCHECK(can_reserve(phits));
    occupancy_ += phits;
    pipeline_.push_back(Entry{ref, phits, downstream_vc,
                              now + pipeline_latency_});
  }

  /// True when a packet is ready to start serializing onto the link.
  bool ready_to_send(Cycle now) const {
    return !pipeline_.empty() && pipeline_.front().ready <= now &&
           link_busy_until_ <= now;
  }

  /// A packet leaving for the link: its ref, size and downstream VC.
  struct Departure {
    PacketRef ref = kInvalidPacketRef;
    std::int32_t phits = 0;
    VcIndex vc = kInvalidVc;
  };

  /// Starts transmitting the head packet; the link stays busy for the
  /// packet's serialization time.
  Departure start_send(Cycle now) {
    FLEXNET_DCHECK(ready_to_send(now));
    const Entry e = pipeline_.front();
    pipeline_.pop_front();
    occupancy_ -= e.phits;
    link_busy_until_ = now + e.phits;
    return {e.ref, e.phits, e.vc};
  }

  /// Earliest cycle ready_to_send can hold while the buffered packets stay
  /// as they are: the head's pipeline exit or the end of the current
  /// serialization, whichever is later. Requires !idle().
  Cycle next_ready() const {
    FLEXNET_DCHECK(!pipeline_.empty());
    return std::max(pipeline_.front().ready, link_busy_until_);
  }

  int occupancy() const { return occupancy_; }
  int capacity() const { return capacity_; }
  bool idle() const { return pipeline_.empty(); }

  /// Starts loading the pipeline slot the next accept writes (a hint).
  void prefetch_tail() const { pipeline_.prefetch_back(); }
  Cycle link_busy_until() const { return link_busy_until_; }

 private:
  struct Entry {
    PacketRef ref = kInvalidPacketRef;
    std::int32_t phits = 0;
    VcIndex vc = kInvalidVc;
    Cycle ready = 0;
  };

  int capacity_;
  int pipeline_latency_;
  int occupancy_ = 0;
  Cycle link_busy_until_ = 0;
  EventLane<Entry> pipeline_;
};

}  // namespace flexnet
