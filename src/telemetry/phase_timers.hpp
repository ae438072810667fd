// Wall-clock accumulators for the phases of Network::step.
//
// Unlike TelemetryCounters these are not deterministic — they read the host
// clock — so they sit apart from the counter registry (render() and the
// determinism tests never see them). Network reads the clock only while
// telemetry is enabled, so untraced runs pay one predictable branch per
// phase and no clock reads.
//
// Accounting is lap-based: start() stamps the clock, and each lap(p)
// charges the time since the previous stamp to phase p. Network::step is
// one serial sweep, so the phases partition its wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace flexnet {

enum class StepPhase : std::uint8_t {
  kDeliverData,     ///< data lanes into input buffers
  kDeliverCredits,  ///< credit lanes into ledgers
  kNodes,           ///< node generation and injection
  kAllocate,        ///< routing update, wake calendar, allocation, ejection
  kSend,            ///< output serializers onto links
  kCount,
};

class PhaseTimers {
 public:
  static constexpr int kPhases = static_cast<int>(StepPhase::kCount);

  static const char* name(StepPhase p) {
    static constexpr const char* kNames[kPhases] = {
        "deliver_data", "deliver_credits", "nodes", "allocate", "send"};
    return kNames[static_cast<int>(p)];
  }

  void start() { last_ = Clock::now(); }

  void lap(StepPhase p) {
    const Clock::time_point now = Clock::now();
    seconds_[static_cast<std::size_t>(p)] +=
        std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }

  double seconds(StepPhase p) const {
    return seconds_[static_cast<std::size_t>(p)];
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::array<double, kPhases> seconds_{};
  Clock::time_point last_{};
};

}  // namespace flexnet
