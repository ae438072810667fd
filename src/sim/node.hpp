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

#include <cstdint>
#include <memory>
#include <vector>

#include "buffers/packet.hpp"
#include "common/event_lane.hpp"
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
  /// Node n draws from `base.split(0x100000 + n)`.
  Nodes(const SimConfig& config, const Topology& topo, const Rng& base);

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

 private:
  /// A packet waiting in a source queue: everything else about it follows
  /// from its node, its queue's class and the configuration (inject()
  /// builds the Packet). A quarter of a Packet, so saturated runs whose
  /// queues grow without bound hold four times as many per byte.
  struct Queued {
    NodeId dst = kInvalidNode;
    Cycle created = 0;
  };

  /// Source queues and consumption-port timers of one node.
  struct Node {
    EventLane<Queued> source[kNumMsgClasses];
    Cycle consume_busy_until[kNumMsgClasses] = {0, 0};
  };

  void enqueue(NodeId n, MsgClass cls, NodeId dst, Cycle created);
  void inject(NodeId n, Cycle now, Network& net);

  const SimConfig& config_;
  std::unique_ptr<TrafficPattern> pattern_;
  InjectionProcess process_;
  // Generation state, per node.
  std::vector<Rng> rng_;
  std::vector<InjectionState> state_;
  std::vector<NodeId> burst_dst_;
  // The injection pass's filter, per node: packets in both source queues,
  // and the first cycle the injection channel is free.
  std::vector<std::int32_t> queued_;
  std::vector<Cycle> inject_busy_until_;
  std::vector<Node> nodes_;
  std::vector<NodeId> backlog_;  ///< injection-pass scratch
};

}  // namespace flexnet
