// Simulation driver: warm-up, steady-state measurement window, deadlock
// watchdog, multi-seed averaging.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/network.hpp"

namespace flexnet {

/// Steady-state results of one run. Every field is declared once more, in
/// kResultFields below, which derives the checkpoint journal record,
/// result_bits_equal, the JSON report row, and seed aggregation.
struct SimResult {
  double offered = 0.0;   ///< measured offered load, phits/node/cycle
  double accepted = 0.0;  ///< accepted (delivered) load, phits/node/cycle
  double avg_latency = 0.0;  ///< cycles, generation to delivery
  double avg_hops = 0.0;
  double request_latency = 0.0;  ///< request-class average (reactive runs)
  double reply_latency = 0.0;
  /// Latency percentiles from the measurement window's log2 histogram
  /// (deterministic estimates, see telemetry/histogram.hpp); the max is
  /// the exact largest observed latency.
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;
  std::int64_t consumed_packets = 0;
  bool deadlock = false;
  Cycle cycles = 0;
};

/// How SweepRunner::aggregate_seeds folds one field over a point's
/// per-seed results. Survivors are the seeds that did not deadlock.
enum class SeedRule {
  kMean,    ///< mean over survivors
  kMax,     ///< max over survivors (a mean of maxima is no run's latency)
  kSum,     ///< sum over survivors
  kSumAll,  ///< sum over every seed, deadlocked or not
  kAny,     ///< set if any seed's flag is set
};

/// One SimResult field: its member, its JSON report name, and its seed
/// rule. The member's type decides the encoding: a double is a hexfloat
/// in the journal and json_number in reports, an int64 is decimal, a bool
/// is 0/1 in the journal and true/false in reports.
template <typename T>
struct ResultField {
  T SimResult::*member;
  const char* name;
  SeedRule rule;
};

/// Every SimResult field, once, in journal record order. JSON rows list the
/// numeric fields in this order and then the flags, so "cycles" precedes
/// "deadlock" there while the journal keeps deadlock before cycles.
inline constexpr std::tuple kResultFields{
    ResultField<double>{&SimResult::offered, "offered", SeedRule::kMean},
    ResultField<double>{&SimResult::accepted, "accepted", SeedRule::kMean},
    ResultField<double>{&SimResult::avg_latency, "latency", SeedRule::kMean},
    ResultField<double>{&SimResult::avg_hops, "hops", SeedRule::kMean},
    ResultField<double>{&SimResult::request_latency, "request_latency",
                        SeedRule::kMean},
    ResultField<double>{&SimResult::reply_latency, "reply_latency",
                        SeedRule::kMean},
    ResultField<double>{&SimResult::latency_p50, "latency_p50",
                        SeedRule::kMean},
    ResultField<double>{&SimResult::latency_p99, "latency_p99",
                        SeedRule::kMean},
    ResultField<double>{&SimResult::latency_max, "latency_max",
                        SeedRule::kMax},
    ResultField<std::int64_t>{&SimResult::consumed_packets,
                              "consumed_packets", SeedRule::kSum},
    ResultField<bool>{&SimResult::deadlock, "deadlock", SeedRule::kAny},
    ResultField<Cycle>{&SimResult::cycles, "cycles", SeedRule::kSumAll},
};

inline constexpr std::size_t kResultFieldCount =
    std::tuple_size_v<decltype(kResultFields)>;

// Flags, and only flags, fold by kAny.
static_assert(std::apply(
    [](const auto&... field) {
      return (((field.rule == SeedRule::kAny) ==
               std::is_same_v<decltype(field.member), bool SimResult::*>) &&
              ...);
    },
    kResultFields));

/// Calls `fn(field)` for each kResultFields entry, in table order.
template <typename Fn>
void for_each_result_field(Fn&& fn) {
  std::apply([&fn](const auto&... field) { (fn(field), ...); },
             kResultFields);
}

// Arity pin: this stops compiling when SimResult gains or loses a field.
// A new field must get an entry in kResultFields above (add it to the
// table), its name here, and a bump of the count below.
[[maybe_unused]] inline void pin_result_fields(const SimResult& r) {
  [[maybe_unused]] const auto& [
      offered, accepted, avg_latency, avg_hops, request_latency,
      reply_latency, latency_p50, latency_p99, latency_max, consumed_packets,
      deadlock, cycles] = r;
  static_assert(kResultFieldCount == 12, "one kResultFields entry per field");
}

class TraceWriter;

class Simulator {
 public:
  explicit Simulator(const SimConfig& config) : config_(config) {}

  /// Runs warmup + measurement; returns steady-state results. A run is
  /// declared deadlocked (result.deadlock) when no packet moves for
  /// config.watchdog cycles while packets sit in the network.
  SimResult run();

  /// Enables the network's telemetry counting for this run (default off).
  Simulator& set_telemetry(bool on) {
    telemetry_ = on;
    return *this;
  }

  /// Forces the network's state gather on or off for this run (tests;
  /// default: build() selects it by size, see state_gather_wanted).
  Simulator& set_state_gather(bool on) {
    state_gather_override_ = on ? 1 : 0;
    return *this;
  }

  /// Emits per-packet lifetime spans of this run into `trace` under
  /// process id `pid` (see telemetry/trace.hpp). Null disables.
  Simulator& set_trace(TraceWriter* trace, int pid) {
    trace_ = trace;
    trace_pid_ = pid;
    return *this;
  }

  /// Access to the network after run() for inspection in tests.
  Network* network() { return network_.get(); }

 private:
  SimConfig config_;
  bool telemetry_ = false;
  int state_gather_override_ = -1;
  TraceWriter* trace_ = nullptr;
  int trace_pid_ = 0;
  std::unique_ptr<Network> network_;
};

}  // namespace flexnet
