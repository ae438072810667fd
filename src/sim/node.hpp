// Computing-node model: traffic generation, bounded-bandwidth injection,
// separate request/reply consumption ports, and reply generation for
// reactive (request-reply) traffic.
//
// All nodes live in one Nodes object, struct-of-arrays: what the node
// phase reads for every node every cycle (RNG streams, injection-process
// states, burst destinations, queued counts, injection-channel timers)
// sits in flat arrays of its own, and the source queues and consumption-
// port timers sit in a by-value node array that only backlogged nodes and
// ejections touch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "buffers/packet.hpp"
#include "common/event_lane.hpp"
#include "common/prefetch.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"
#include "topology/topology.hpp"
#include "traffic/traffic.hpp"

namespace flexnet {

class Metrics;
class Network;

class Nodes {
 public:
  /// Node n draws from `base.split(0x100000 + n)`. Every per-node array
  /// and source queue draws from `mr` (the owning Network's arena).
  Nodes(const SimConfig& config, const Topology& topo, const Rng& base,
        std::pmr::memory_resource* mr);

  int size() const { return static_cast<int>(nodes_.size()); }

  /// The node phase of one cycle. A dense pass advances every node's
  /// injection process in ascending id, appending generated requests to
  /// the source queues; then the nodes holding queued packets and a free
  /// injection channel, again in ascending id, move a source-queue head
  /// into their router's injection buffer (at most one packet per
  /// packet_size cycles: the injection channel is one phit per cycle). Splitting the passes is bit-identical
  /// to stepping node by node: generation draws only from the node's own
  /// stream, reads no network state, and feeds Metrics an integer phit
  /// sum, while injection keeps its ascending node order.
  void step(Cycle now, Network& net, Metrics& metrics);

  /// Whether node n's consumption port of the class can take a packet now.
  /// For requests under reactive traffic this also requires room in the
  /// reply source queue: the protocol dependency that makes request-reply
  /// deadlock possible when VCs are misconfigured.
  bool can_consume(NodeId n, MsgClass cls, Cycle now) const;

  /// Accepts a packet at node `pkt.dst`'s consumption port (called on an
  /// ejection grant); returns the completion cycle of the transfer.
  /// Touches only that node's state (consumption ports, the reply source
  /// queue) — the grant applies the global side effects (trace, metrics,
  /// pool release) right after.
  Cycle consume(const Packet& pkt, Cycle now);

  /// Whether consuming `pkt` enqueues a reply (reactive request): the
  /// ejection grant counts the generation metric for it alongside
  /// on_consumed.
  bool consume_spawns_reply(const Packet& pkt) const {
    return config_.reactive && pkt.cls == MsgClass::kRequest;
  }

  /// First cycle node n's consumption port of the class is free again.
  /// When this is in the future, can_consume is false until exactly this
  /// cycle — the allocator's pruning uses it to sleep ejection-blocked
  /// slots on a timer instead of re-arbitrating them every cycle.
  Cycle consume_free_at(NodeId n, MsgClass cls) const {
    return nodes_[static_cast<std::size_t>(n)]
        .consume_busy_until[static_cast<int>(cls)];
  }

  /// Starts loading the consumption-port state (what can_consume and
  /// consume read) of nodes [first, first + count): the allocator's state
  /// gather starts it for a router's nodes before evaluating any head.
  void prefetch_consumers(NodeId first, int count) const {
    const Node* from = nodes_.data() + first;
    prefetch_lines(from, from + count);
  }

  /// Bytes of the consumption-port state of every node.
  std::size_t consumer_bytes() const { return nodes_.size() * sizeof(Node); }

 private:
  /// A packet waiting in a source queue: everything else about it follows
  /// from its node, its queue's class and the configuration (inject()
  /// builds the Packet). A quarter of a Packet, so saturated runs whose
  /// queues grow without bound hold four times as many per byte.
  struct Queued {
    NodeId dst = kInvalidNode;
    Cycle created = 0;
  };

  /// Source queues and consumption-port timers of one node. Allocator-
  /// aware, so the queues draw from the node array's resource.
  struct Node {
    using allocator_type = std::pmr::polymorphic_allocator<Queued>;
    explicit Node(const allocator_type& alloc)
        : source{EventLane<Queued>(alloc), EventLane<Queued>(alloc)} {}
    Node(Node&& o, const allocator_type& alloc)
        : source{EventLane<Queued>(std::move(o.source[0]), alloc),
                 EventLane<Queued>(std::move(o.source[1]), alloc)},
          consume_busy_until{o.consume_busy_until[0],
                             o.consume_busy_until[1]} {}

    EventLane<Queued> source[kNumMsgClasses];
    Cycle consume_busy_until[kNumMsgClasses] = {0, 0};
  };
  static_assert(kNumMsgClasses == 2, "Node spells out one queue per class");

  void enqueue(NodeId n, MsgClass cls, NodeId dst, Cycle created);
  void inject(NodeId n, Cycle now, Network& net);

  const SimConfig& config_;
  std::unique_ptr<TrafficPattern> pattern_;
  InjectionProcess process_;
  // Generation state, per node.
  std::pmr::vector<Rng> rng_;
  std::pmr::vector<InjectionState> state_;
  std::pmr::vector<NodeId> burst_dst_;
  // The injection pass's filter, per node: packets in both source queues,
  // and the first cycle the injection channel is free.
  std::pmr::vector<std::int32_t> queued_;
  std::pmr::vector<Cycle> inject_busy_until_;
  std::pmr::vector<Node> nodes_;
  std::pmr::vector<NodeId> backlog_;  ///< injection-pass scratch
};

}  // namespace flexnet
