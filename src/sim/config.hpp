// Simulation configuration: Table V defaults, scaled-down topology.
#pragma once

#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/types.hpp"
#include "topology/dragonfly.hpp"
#include "topology/slimfly.hpp"

namespace flexnet {

struct SimConfig {
  // --- Topology. The paper's system is dragonfly (8,16,8); the default
  // here is a scaled-down (2,4,2) instance with identical microarchitecture
  // parameters so experiment suites run on one core.
  std::string topology = "dragonfly";  // dragonfly | slimfly
  DragonflyParams dragonfly{2, 4, 2};
  SlimFlyParams slimfly{2, 5};

  // --- VC management (the subject of the paper).
  std::string vcs = "2/1";         ///< arrangement, e.g. "4/2", "4/2+2/1", "3"
  std::string policy = "baseline"; ///< baseline | flexvc
  std::string vc_selection = "jsq";

  // --- Buffers, in phits (Table V).
  int local_buffer_per_vc = 32;
  int global_buffer_per_vc = 256;
  int injection_buffer_per_vc = 256;
  int output_buffer = 32;
  /// When > 0, fix the total port capacity and divide it among the VCs
  /// (the constant-capacity comparisons of Figs 6/11).
  int local_port_capacity = 0;
  int global_port_capacity = 0;
  std::string buffer_org = "static";  // static | damq
  double damq_private_fraction = 0.75;

  // --- Router microarchitecture (Table V).
  int speedup = 2;          ///< crossbar frequency multiple of the link clock
  int alloc_iters = 2;      ///< iterations of the separable allocator
  int pipeline_latency = 5; ///< cycles
  int injection_vcs = 3;

  // --- Links (Table V).
  int local_latency = 10;
  int global_latency = 100;

  // --- Routing.
  std::string routing = "min";  // min | val | par | pb | ugal
  bool pb_per_vc = false;       ///< PB per-VC vs per-port sensing
  bool mincred = false;         ///< FlexVC-minCred credit accounting
  int adaptive_threshold = 3;   ///< T, packets (Table V)

  // --- Flow control. "packet" is the original whole-packet credit mode
  // and stays byte-identical to the pre-axis engine; "wormhole" and "vct"
  // stream packets phit-by-phit across links (head-flit routing, body
  // flits follow on the committed VC), one flit per phit of packet_size.
  std::string flow_control = "packet";  // packet | wormhole | vct
  /// Buffer-management scheme downstream space is tracked with:
  /// exact credits or coarse on/off backpressure with hysteresis.
  std::string buffer_mgmt = "credit";  // credit | on_off

  // --- Traffic.
  std::string traffic = "uniform";  // uniform | adversarial | bursty
  bool reactive = false;            ///< request-reply dependencies
  double load = 0.5;                ///< offered phits/node/cycle
  double burst_length = 5.0;        ///< BURSTY-UN mean packets per burst
  int adversarial_offset = 1;
  int reply_queue_capacity = 8;  ///< packets; bounds request consumption
  /// Phits a packet occupies on links and in buffers, under every flow
  /// control scheme (Table V: 8).
  int packet_size = 8;

  // --- Run control.
  /// Retired execution knob: Network::step is one serial sweep, and a
  /// sweep's parallelism comes from running jobs on SweepRunner workers
  /// (`--jobs`). Kept so suites and journals that pin `sim_domains: 1`
  /// stay valid; validate_config rejects any other value.
  int sim_domains = 1;
  Cycle warmup = 10000;
  Cycle measure = 20000;
  std::uint64_t seed = 1;
  /// Cycles without any packet movement (with packets inside the network)
  /// before the run is declared deadlocked.
  Cycle watchdog = 20000;

  /// Applies "key=value" overrides (load=0.6 vcs=4/2 policy=flexvc ...).
  /// Exactly the keys in known_keys() are honored; others are ignored.
  /// Each value must parse fully as its key's kind (an int key also within
  /// its field's range; a bool key as true/false/1/0/yes/no/on/off), or
  /// std::invalid_argument names the key and the value.
  void apply(const Options& opts);

  /// Sets the one known key `key` from `value`, checked exactly as apply()
  /// checks it; throws std::invalid_argument for an unknown key too.
  void set(const std::string& key, const std::string& value);

  /// Every override key apply() accepts, in application order. Keys,
  /// kinds, apply(), and canonical() all come from one table in
  /// config.cpp: a new field is one entry there plus its name in the
  /// arity pin beside it.
  static const std::vector<std::string>& known_keys();

  /// Value shape of a known key, from its field's C++ type.
  enum class KeyKind { kString, kInt, kDouble, kBool };

  /// Kind of `key`; throws std::invalid_argument for unknown keys.
  static KeyKind key_kind(const std::string& key);

  /// packet_size, kept under this name for perfbench/flexbench.cpp.
  int effective_packet_phits() const { return packet_size; }

  std::string summary() const;

  /// Canonical serialization of every field: "key=value;" per key-table
  /// entry, in table order, with doubles rendered exactly (hexfloat). Two
  /// configs with equal canonical strings run identical simulations; the
  /// checkpoint journal fingerprints sweep grids over this string.
  std::string canonical() const;
};

}  // namespace flexnet
