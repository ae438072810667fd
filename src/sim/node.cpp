#include "sim/node.hpp"

#include "common/check.hpp"
#include "scenario/registry.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace flexnet {

namespace {

// Reactive traffic offers `load` counting both requests and the replies
// they spawn, so requests are generated at half the configured load
// (SIV-B; keeps the injection channel's 1 phit/cycle budget feasible).
double request_load(const SimConfig& config) {
  return config.reactive ? config.load / 2 : config.load;
}

}  // namespace

Nodes::Nodes(const SimConfig& config, const Topology& topo, const Rng& base,
             std::pmr::memory_resource* mr)
    : config_(config),
      pattern_(traffic_registry().at(config.traffic).make.pattern(topo,
                                                                  config)),
      process_(traffic_registry().at(config.traffic).make.process(
          config, request_load(config))),
      rng_(mr),
      state_(mr),
      burst_dst_(mr),
      queued_(mr),
      inject_busy_until_(mr),
      nodes_(mr),
      backlog_(mr) {
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  rng_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    rng_.push_back(base.split(0x100000 + static_cast<std::uint64_t>(i)));
  state_.assign(n, InjectionState{});
  burst_dst_.assign(n, kInvalidNode);
  queued_.assign(n, 0);
  inject_busy_until_.assign(n, 0);
  nodes_.resize(n);
  backlog_.reserve(n);
}

void Nodes::step(Cycle now, Network& net, Metrics& metrics) {
  backlog_.clear();
  const NodeId count = size();
  for (NodeId n = 0; n < count; ++n) {
    const auto i = static_cast<std::size_t>(n);
    const Emission e = process_.step(state_[i], rng_[i]);
    if (e != Emission::kNone) {
      if (e == Emission::kNewBurst)
        burst_dst_[i] = pattern_->destination(n, rng_[i]);
      enqueue(n, MsgClass::kRequest, burst_dst_[i], now);
      metrics.on_generated(config_.packet_size);
    }
    if (queued_[i] > 0 && inject_busy_until_[i] <= now) backlog_.push_back(n);
  }
  if (net.state_gather())
    for_each_ahead<3>(
        backlog_.data(), backlog_.size(),
        [&](NodeId n) { inject(n, now, net); },
        [&](int round, NodeId n) { gather_injection(round, n, net); });
  else
    for (const NodeId n : backlog_) inject(n, now, net);
}

void Nodes::gather_injection(int round, NodeId n, const Network& net) const {
  asm volatile("");
  const Node& node = nodes_[static_cast<std::size_t>(n)];
  if (round == 0) {
    prefetch_lines(&node, &node + 1);
    return;
  }
  if (round == 1) {
    node.source[0].prefetch_front();
    node.source[1].prefetch_front();
  }
  net.gather_injection(round - 1, n);
}

void Nodes::enqueue(NodeId n, MsgClass cls, NodeId dst, Cycle created) {
  EventLane<Queued>& queue =
      nodes_[static_cast<std::size_t>(n)].source[static_cast<int>(cls)];
  // A new front is one the node has not offered yet.
  if (queue.empty()) unpark(n);
  queue.push_back(Queued{dst, created});
  ++queued_[static_cast<std::size_t>(n)];
}

void Nodes::inject(NodeId n, Cycle now, Network& net) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  bool all_refused = true;
  // Replies first: they unblock request consumption at remote nodes.
  for (int c : {static_cast<int>(MsgClass::kReply),
                static_cast<int>(MsgClass::kRequest)}) {
    EventLane<Queued>& queue = node.source[c];
    if (queue.empty()) continue;
    if (queue.front().created > now) {  // reply not materialized yet
      all_refused = false;
      continue;
    }
    Packet pkt;
    pkt.src = n;
    pkt.dst = queue.front().dst;
    pkt.size = config_.packet_size;
    pkt.cls = static_cast<MsgClass>(c);
    pkt.created = queue.front().created;
    pkt.vc_position = kInjectionPosition;
    if (net.try_inject(n, pkt, now)) {
      queue.pop_front();
      --queued_[static_cast<std::size_t>(n)];
      inject_busy_until_[static_cast<std::size_t>(n)] =
          now + config_.packet_size;
      return;
    }
  }
  // Full injection buffer: park until a grant pops it or a new front comes.
  if (all_refused) inject_busy_until_[static_cast<std::size_t>(n)] = kParked;
}

bool Nodes::can_consume(NodeId n, MsgClass cls, Cycle now) const {
  const Node& node = nodes_[static_cast<std::size_t>(n)];
  if (node.consume_busy_until[static_cast<int>(cls)] > now) return false;
  if (cls == MsgClass::kRequest && config_.reactive) {
    // A request can only be consumed when the reply it triggers has room in
    // the reply source queue (protocol dependency).
    return static_cast<std::int64_t>(
               node.source[static_cast<int>(MsgClass::kReply)].size()) <
           config_.reply_queue_capacity;
  }
  return true;
}

Cycle Nodes::consume(const Packet& pkt, Cycle now) {
  FLEXNET_DCHECK(can_consume(pkt.dst, pkt.cls, now));
  // The consumption channel moves one phit per cycle; the router pipeline
  // adds latency but overlaps with the next packet's transfer.
  const Cycle completion = now + config_.pipeline_latency + pkt.size;
  nodes_[static_cast<std::size_t>(pkt.dst)]
      .consume_busy_until[static_cast<int>(pkt.cls)] = now + pkt.size;
  if (consume_spawns_reply(pkt))
    enqueue(pkt.dst, MsgClass::kReply, pkt.src, completion);
  return completion;
}

}  // namespace flexnet
