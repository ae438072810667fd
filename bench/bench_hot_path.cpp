// bench_hot_path: cycles/sec microbenchmark of the per-cycle engine.
//
// Measures raw Network::step throughput — no sweep runner, no warmup
// window, no metrics post-processing — on the smoke topology (the default
// dragonfly (2,4,2) every CI suite runs) across three load regimes:
// near-idle, the smoke suite's moderate load, and saturation. The
// near-idle case is where an active-set core shines (cost tracks traffic,
// not topology); the saturated case bounds the bookkeeping overhead when
// every router is busy.
//
//   bench_hot_path [--cycles N] [--json PATH] [--label L] [key=value ...]
//
// Each case runs twice — telemetry counting runtime-enabled, then disabled
// — so the report carries both rates and their ratio; the telemetry-off
// rate is the primary number (and what the CI regression gate compares),
// the ratio is the observed cost of leaving the counters on.
//
// The telemetry-on pass also times every phase of Network::step
// (telemetry/phase_timers.hpp); the report gives each phase's share of the
// step time, and `alloc_ns/grant` (JSON `alloc_ns_per_grant`) divides its
// allocate time by its grants: run once at smoke scale and once with
// `paper_scale=1` (the paper's 2064-router Dragonfly; pass a small
// --cycles, a cycle there costs ~100x smoke) to read how much more a grant
// costs at paper scale.
//
// Each case also reports which allocation path it measured: `gather` is
// whether the network selected the state gather (Network::state_gather,
// on once the per-router allocation state outgrows L2), so every
// alloc_ns/grant comparison names the path behind it. And it reports
// where its network's bytes live, read at the end of the telemetry-off
// pass: `arena_mb` is what the network's arena holds from the OS
// (common/arena.hpp), `huge_mb` the process's AnonHugePages from
// /proc/self/smaps_rollup (0 where that file is unreadable).
//
// The JSON report is a "microbench" document (not a sweep report);
// tools/bench_trajectory folds it into BENCH_sweeps.json alongside the
// sweep entries so the engine's cycles/sec is tracked commit over commit.
// consumed/grants are echoed as a cheap cross-core checksum: two engines
// that disagree on them are not simulating the same network.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "runner/json_parser.hpp"
#include "sim/config.hpp"
#include "sim/network.hpp"

namespace {

using namespace flexnet;

struct Case {
  const char* name;
  const char* policy;
  const char* vcs;
  const char* buffer_org;
  const char* flow_control;
  double load;
};

constexpr Case kCases[] = {
    {"baseline 2/1 load=0.05", "baseline", "2/1", "static", "packet", 0.05},
    {"flexvc 4/2 load=0.60", "flexvc", "4/2", "static", "packet", 0.60},
    {"flexvc 4/2 damq load=1.00", "flexvc", "4/2", "damq", "packet", 1.00},
    // Loaded flit-level cases: the multi-phit engine exercises different
    // hot paths (per-phit link events, VC re-binding under wormhole,
    // whole-packet buffer claims under VCT), so the regression gate tracks
    // them separately from the packet-mode saturation case.
    {"flexvc 4/2 wormhole load=0.80", "flexvc", "4/2", "static", "wormhole",
     0.80},
    {"flexvc 4/2 damq vct load=1.00", "flexvc", "4/2", "damq", "vct", 1.00},
};

struct CaseResult {
  std::string name;
  Cycle cycles = 0;
  double wall_seconds = 0.0;
  double cycles_per_sec = 0.0;  ///< telemetry runtime-off (the primary rate)
  /// Same case with telemetry counting runtime-enabled, and the off/on
  /// throughput ratio (>= 1.0 means counting costs something).
  double cycles_per_sec_telemetry = 0.0;
  double telemetry_overhead = 1.0;
  std::int64_t consumed = 0;
  std::int64_t grants = 0;
  /// Revalidation passes on slots holding an already-committed request —
  /// the allocator work that arbitration pruning exists to eliminate.
  /// re_requests/grants is the companion waste ratio: repeat arbitration
  /// attempts per packet movement (hops plus ejections).
  std::int64_t re_requests = 0;
  double re_requests_per_grant = 0.0;
  /// Seconds per step phase in the telemetry-on pass, by StepPhase.
  double phase_seconds[PhaseTimers::kPhases] = {};
  /// The telemetry-on pass's allocate time per grant, in nanoseconds.
  double alloc_ns_per_grant = 0.0;
  bool state_gather = false;  ///< the allocation path the network selected
  double arena_mb = 0.0;  ///< bytes the network's arena holds from the OS
  double huge_mb = 0.0;   ///< process AnonHugePages (0 when unreadable)
};

constexpr double kMiB = 1024.0 * 1024.0;

/// AnonHugePages of this process in MiB, or 0 when smaps_rollup is
/// unreadable (non-Linux hosts, restricted /proc).
double anon_huge_mb() {
  std::ifstream in("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("AnonHugePages:", 0) != 0) continue;
    std::istringstream fields(line.substr(14));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

double time_case(const Case& c, const SimConfig& base, Cycle cycles,
                 bool telemetry_on, CaseResult* out) {
  SimConfig cfg = base;
  cfg.policy = c.policy;
  cfg.vcs = c.vcs;
  cfg.buffer_org = c.buffer_org;
  cfg.flow_control = c.flow_control;
  cfg.load = c.load;
  Network net(cfg);
  net.set_telemetry_enabled(telemetry_on);
  const auto t0 = std::chrono::steady_clock::now();
  for (Cycle now = 0; now < cycles; ++now) net.step(now);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (telemetry_on && out != nullptr) {
    for (int p = 0; p < PhaseTimers::kPhases; ++p)
      out->phase_seconds[p] =
          net.phase_times().seconds(static_cast<StepPhase>(p));
    const std::int64_t grants = net.total_grants();
    out->alloc_ns_per_grant =
        grants > 0 ? 1e9 *
                         net.phase_times().seconds(StepPhase::kAllocate) /
                         static_cast<double>(grants)
                   : 0.0;
  }
  if (!telemetry_on && out != nullptr) {
    out->consumed = net.metrics().consumed_packets();
    out->grants = net.total_grants();
    out->re_requests = net.re_requests();
    out->state_gather = net.state_gather();
    out->arena_mb = static_cast<double>(net.arena().os_bytes()) / kMiB;
    out->huge_mb = anon_huge_mb();
    out->re_requests_per_grant =
        out->grants > 0 ? static_cast<double>(out->re_requests) /
                              static_cast<double>(out->grants)
                        : 0.0;
  }
  return secs > 0.0 ? static_cast<double>(cycles) / secs : 0.0;
}

CaseResult run_case(const Case& c, const SimConfig& base, Cycle cycles) {
  CaseResult r;
  r.name = c.name;
  r.cycles = cycles;
  // Telemetry-on first, telemetry-off second: the off pass (the number the
  // CI regression gate watches) gets the warmed caches, biasing any error
  // against reporting a phantom speedup.
  r.cycles_per_sec_telemetry = time_case(c, base, cycles, true, &r);
  r.cycles_per_sec = time_case(c, base, cycles, false, &r);
  r.wall_seconds = static_cast<double>(cycles) / r.cycles_per_sec;
  r.telemetry_overhead = r.cycles_per_sec_telemetry > 0.0
                             ? r.cycles_per_sec / r.cycles_per_sec_telemetry
                             : 1.0;
  return r;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cycles N] [--json PATH] [--label L] "
               "[--filter SUBSTR] [key=value ...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Cycle cycles = 30000;
  std::string json_path;
  std::string label;
  std::string filter;  ///< substring filter over case names (profiling aid)
  std::vector<const char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto flag_value = [&](const char* name, std::string* out) {
      if (tok == std::string("--") + name) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: --%s requires a value\n", name);
          std::exit(2);
        }
        *out = argv[++i];
        return true;
      }
      return false;
    };
    std::string value;
    if (flag_value("cycles", &value)) {
      cycles = std::max(1LL, static_cast<long long>(std::atoll(value.c_str())));
    } else if (flag_value("json", &value)) {
      json_path = value;
    } else if (flag_value("label", &value)) {
      label = value;
    } else if (flag_value("filter", &value)) {
      filter = value;
    } else if (tok.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      rest.push_back(argv[i]);
    }
  }

  SimConfig base;
  base.apply(Options::parse(static_cast<int>(rest.size()), rest.data()));

  std::printf("hot-path microbench: dragonfly(p=%d,a=%d,h=%d), %lld cycles "
              "per case\n",
              base.dragonfly.p, base.dragonfly.a, base.dragonfly.h,
              static_cast<long long>(cycles));
  std::printf(
      "%-30s %9s %8s %12s %12s %9s %9s %10s %11s %8s %14s %6s %9s %8s\n",
      "case", "cycles", "wall_s", "cycles/sec", "cps(telem)", "overhead",
      "consumed", "grants", "re_request", "rr/grant", "alloc_ns/grant",
      "gather", "arena_mb", "huge_mb");

  std::vector<CaseResult> results;
  double log_sum = 0.0;
  double telem_log_sum = 0.0;
  for (const Case& c : kCases) {
    if (!filter.empty() && std::strstr(c.name, filter.c_str()) == nullptr)
      continue;
    const CaseResult r = run_case(c, base, cycles);
    std::printf(
        "%-30s %9lld %8.3f %12.0f %12.0f %8.3fx %9lld %10lld %11lld %8.3f "
        "%14.1f %6s %9.1f %8.1f\n",
        r.name.c_str(), static_cast<long long>(r.cycles), r.wall_seconds,
        r.cycles_per_sec, r.cycles_per_sec_telemetry, r.telemetry_overhead,
        static_cast<long long>(r.consumed),
        static_cast<long long>(r.grants),
        static_cast<long long>(r.re_requests), r.re_requests_per_grant,
        r.alloc_ns_per_grant, r.state_gather ? "on" : "off", r.arena_mb,
        r.huge_mb);
    log_sum += std::log(r.cycles_per_sec);
    telem_log_sum += std::log(r.telemetry_overhead);
    results.push_back(r);
  }
  if (results.empty()) {
    std::fprintf(stderr, "error: --filter '%s' matched no case\n",
                 filter.c_str());
    return 2;
  }
  const double geomean =
      std::exp(log_sum / static_cast<double>(results.size()));
  const double overhead_geomean =
      std::exp(telem_log_sum / static_cast<double>(results.size()));
  std::printf("geomean cycles/sec: %.0f (telemetry-on overhead %.3fx)\n",
              geomean, overhead_geomean);

  std::printf("\nstep phase shares, telemetry-on pass (%%):\n%-30s", "case");
  for (int p = 0; p < PhaseTimers::kPhases; ++p)
    std::printf(" %15s", PhaseTimers::name(static_cast<StepPhase>(p)));
  std::printf("\n");
  for (const CaseResult& r : results) {
    double total = 0.0;
    for (const double sec : r.phase_seconds) total += sec;
    std::printf("%-30s", r.name.c_str());
    for (const double sec : r.phase_seconds)
      std::printf(" %15.1f", total > 0.0 ? 100.0 * sec / total : 0.0);
    std::printf("\n");
  }

  if (!json_path.empty()) {
    JsonValue doc = JsonValue::make_object();
    JsonValue meta = JsonValue::make_object();
    meta.set("kind", JsonValue::make_string("hot_path_microbench"));
    meta.set("config", JsonValue::make_string(base.summary()));
    if (!label.empty()) meta.set("label", JsonValue::make_string(label));
    doc.set("meta", std::move(meta));
    JsonValue cases = JsonValue::make_array();
    for (const CaseResult& r : results) {
      JsonValue c = JsonValue::make_object();
      c.set("name", JsonValue::make_string(r.name));
      c.set("cycles", JsonValue::make_number(static_cast<double>(r.cycles)));
      c.set("wall_seconds", JsonValue::make_number(r.wall_seconds));
      c.set("cycles_per_sec", JsonValue::make_number(r.cycles_per_sec));
      c.set("cycles_per_sec_telemetry",
            JsonValue::make_number(r.cycles_per_sec_telemetry));
      c.set("telemetry_overhead",
            JsonValue::make_number(r.telemetry_overhead));
      c.set("consumed_packets",
            JsonValue::make_number(static_cast<double>(r.consumed)));
      c.set("grants", JsonValue::make_number(static_cast<double>(r.grants)));
      c.set("re_requests",
            JsonValue::make_number(static_cast<double>(r.re_requests)));
      c.set("re_requests_per_grant",
            JsonValue::make_number(r.re_requests_per_grant));
      c.set("alloc_ns_per_grant",
            JsonValue::make_number(r.alloc_ns_per_grant));
      c.set("state_gather", JsonValue::make_bool(r.state_gather));
      c.set("arena_mb", JsonValue::make_number(r.arena_mb));
      c.set("huge_mb", JsonValue::make_number(r.huge_mb));
      JsonValue phases = JsonValue::make_object();
      for (int p = 0; p < PhaseTimers::kPhases; ++p)
        phases.set(PhaseTimers::name(static_cast<StepPhase>(p)),
                   JsonValue::make_number(r.phase_seconds[p]));
      c.set("phase_seconds", std::move(phases));
      cases.array.push_back(std::move(c));
    }
    doc.set("microbench", std::move(cases));
    doc.set("geomean_cycles_per_sec", JsonValue::make_number(geomean));
    doc.set("geomean_telemetry_overhead",
            JsonValue::make_number(overhead_geomean));
    const std::string rendered = json_serialize(doc, 0) + "\n";
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    if (!out.write(rendered.data(),
                   static_cast<std::streamsize>(rendered.size()))) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "microbench report written to %s\n",
                 json_path.c_str());
  }
  return 0;
}
