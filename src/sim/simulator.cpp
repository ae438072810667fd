#include "sim/simulator.hpp"

#include "common/log.hpp"

namespace flexnet {

SimResult Simulator::run() {
  network_ = std::make_unique<Network>(config_);
  Network& net = *network_;
  net.set_telemetry_enabled(telemetry_);
  if (state_gather_override_ >= 0)
    net.set_state_gather(state_gather_override_ != 0);
  if (trace_ != nullptr) net.set_trace(trace_, trace_pid_);
  const int nodes = net.topology().num_nodes();

  SimResult result;
  Cycle now = 0;
  const auto deadlocked = [&]() {
    return net.packets_in_network() > 0 &&
           now - net.last_grant() > config_.watchdog;
  };
  // Stalled-traffic dump on deadlock; free unless FLEXNET_DEBUG_STUCK is
  // set (the dump and its per-hop trace recording are both gated on it).
  const auto give_up = [&]() {
    net.debug_dump_stuck(now, config_.watchdog / 2);
    result.deadlock = true;
    result.cycles = now;
    return result;
  };

  for (; now < config_.warmup; ++now) {
    net.step(now);
    if (deadlocked()) return give_up();
  }
  net.metrics().begin_window(now);
  const Cycle end = config_.warmup + config_.measure;
  for (; now < end; ++now) {
    net.step(now);
    if (deadlocked()) return give_up();
  }
  net.metrics().end_window(now);

  const Metrics& m = net.metrics();
  result.offered = m.offered_load(nodes);
  result.accepted = m.accepted_load(nodes);
  result.avg_latency = m.latency().mean();
  result.avg_hops = m.hops().mean();
  result.request_latency = m.latency_of(MsgClass::kRequest).mean();
  result.reply_latency = m.latency_of(MsgClass::kReply).mean();
  result.latency_p50 = m.latency_hist().quantile(0.50);
  result.latency_p99 = m.latency_hist().quantile(0.99);
  result.latency_max =
      static_cast<double>(m.latency_hist().max_value());
  result.consumed_packets = m.consumed_packets();
  result.cycles = now;
  return result;
}

}  // namespace flexnet
