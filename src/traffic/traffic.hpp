// Synthetic traffic: destination patterns and injection processes
// (paper SIV-B).
//
// A TrafficPattern selects destinations; an InjectionProcess decides when a
// node generates a packet. UN and ADV use a Bernoulli process with
// per-packet destinations; BURSTY-UN uses a two-state ON/OFF Markov process
// (mean burst 5 packets) with one destination per burst. Reactive
// (request-reply) behaviour is layered on top by the node model: nodes
// generate requests and return a reply for every consumed request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "topology/topology.hpp"

namespace flexnet {

class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;
  virtual std::string name() const = 0;
  virtual NodeId destination(NodeId src, Rng& rng) const = 0;
};

/// UN: uniform over all nodes except the source.
class UniformPattern final : public TrafficPattern {
 public:
  explicit UniformPattern(int num_nodes) : num_nodes_(num_nodes) {}
  std::string name() const override { return "uniform"; }
  NodeId destination(NodeId src, Rng& rng) const override;

 private:
  int num_nodes_;
};

/// ADV+offset: a random node of the group `offset` groups after the
/// source's. In a Dragonfly all minimal traffic between two groups shares a
/// single global link, making MIN collapse (paper SIV-B).
class AdversarialPattern final : public TrafficPattern {
 public:
  AdversarialPattern(const Topology& topo, int offset = 1)
      : topo_(topo), offset_(offset) {}
  std::string name() const override {
    return "adversarial+" + std::to_string(offset_);
  }
  NodeId destination(NodeId src, Rng& rng) const override;

 private:
  const Topology& topo_;
  int offset_;
};

/// Per-node state of an injection process. The network keeps one per node
/// in a flat array and advances them all in one ascending-id pass.
struct InjectionState {
  /// ON/OFF: cycles into the current packet slot while ON, -1 while OFF.
  std::int32_t phase = -1;
};

/// What one cycle of an injection process produced. A new burst takes a
/// fresh destination; a packet inside a burst keeps the burst's.
enum class Emission : std::uint8_t { kNone, kPacket, kNewBurst };

/// The packet-generation process every node runs (one value shared by all
/// nodes; their states live apart, in InjectionState).
///   * Bernoulli: probability load/packet_size per cycle (load in
///     phits/node/cycle); every packet starts its own burst.
///   * ON/OFF: two-state Markov process (Adas'97 model, found
///     representative of data-center traffic). While ON the node emits
///     back-to-back packets (one per packet_size cycles); after each
///     packet it leaves the burst with probability 1/mean_burst. OFF
///     durations are geometric with the mean that yields the requested
///     load.
class InjectionProcess {
 public:
  static InjectionProcess bernoulli(double load, int packet_size);
  static InjectionProcess on_off(double load, int packet_size,
                                 double mean_burst_packets);

  std::string name() const { return bursty_ ? "onoff" : "bernoulli"; }

  /// Advances one node's process by one cycle, drawing from its stream.
  Emission step(InjectionState& state, Rng& rng) const {
    if (!bursty_)
      return rng.next_bernoulli(prob_) ? Emission::kNewBurst : Emission::kNone;
    Emission out = Emission::kPacket;
    if (state.phase < 0) {
      if (!rng.next_bernoulli(prob_)) return Emission::kNone;
      state.phase = 0;
      out = Emission::kNewBurst;
    }
    if (state.phase != 0) out = Emission::kNone;
    if (++state.phase == packet_size_) {
      state.phase = rng.next_bernoulli(burst_exit_prob_) ? -1 : 0;
    }
    return out;
  }

 private:
  InjectionProcess(bool bursty, int packet_size, double prob,
                   double burst_exit_prob)
      : bursty_(bursty),
        packet_size_(packet_size),
        prob_(prob),
        burst_exit_prob_(burst_exit_prob) {}

  bool bursty_;
  int packet_size_;
  double prob_;  ///< Bernoulli: per-cycle emission; ON/OFF: OFF -> ON
  double burst_exit_prob_;  ///< ON/OFF: 1 / mean burst length (packets)
};

std::unique_ptr<TrafficPattern> make_pattern(const std::string& name,
                                             const Topology& topo,
                                             int adversarial_offset = 1);

}  // namespace flexnet
