// flexbench: the benchmark program behind perfbench/run.py.
//
// Runs one workload (perfbench/README.md) against the flexnet library from
// the outside: it loads the workload's suite (scenario), builds and steps
// Networks (sim), runs sharded sweeps with journals and merges them
// (runner), and samples calls into the routing and VC-policy layers
// (routing, core). Every timing is taken here, around public calls; every
// count comes from a public getter (Network, Metrics, TelemetryCounters).
//
//   flexbench --workload NAME --seed N --seconds S --trace 0|1
//             --root REPO --work DIR [--expect-report PATH]
//
// Prints one JSON document on stdout: the metrics (end-to-end with
// --trace 0, per-layer with --trace 1), every check with its outcome, and
// the simulation jobs attempted and failed. Exits 0 when every check
// passed, 1 when one failed, 2 on a usage or set-up error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/vc_arrangement.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json_parser.hpp"
#include "runner/json_report.hpp"
#include "runner/merge.hpp"
#include "runner/shard.hpp"
#include "runner/sweep_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/suite.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

extern char** environ;

#ifndef FLEXBENCH_BUILD_TYPE
#define FLEXBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace flexnet;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Linear-interpolated quantile, the one percentile convention of every
/// metric here (median = quantile 0.5).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Removes every FLEXNET_* variable from the environment before any
/// library call: src/ reads several of them (scale, seeds, measure window,
/// worker count, telemetry, stuck-traffic dumps, fault injection), and
/// each would change the results, the cost or the control flow.
std::vector<std::string> clear_flexnet_environment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("FLEXNET_", 0) == 0)
      names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  const char* name;
  const char* suite;   ///< suite file, relative to the repository root
  const char* pins;    ///< extra "key=value" overrides applied to the suite
  bool sweep;          ///< sharded SweepRunner sweep (else one direct job)
  int min_reps;        ///< repetitions even when --seconds has run out
  int setup_batch;     ///< set-up repetitions after every rep (setup_s)
  const char* golden;  ///< expected merged report at the default seed
};

// selftest_deadlock is not a benchmark workload: perfbench/selftest.py
// runs it to prove that a deadlocking job fails the run.
constexpr WorkloadSpec kWorkloads[] = {
    {"paper_un_min", "perfbench/suites/paper_un_min.json", "", false, 3, 5,
     nullptr},
    {"fig9_sweep", "examples/suites/fig9_vc_selection.json",
     "warmup=2000 measure=4000", true, 3, 20,
     "tests/golden/fig9_vc_selection.golden.json"},
    {"h4_adv_par_vct", "perfbench/suites/h4_adv_par_vct.json", "", false, 3,
     60, nullptr},
    {"selftest_deadlock", "perfbench/suites/selftest_deadlock.json", "", false,
     1, 1, nullptr},
};

constexpr std::uint64_t kDefaultSeed = 1;  // the seed the goldens record
constexpr int kShards = 2;
constexpr int kMaxReps = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string work;
  std::string expect_report;
};

// ---------------------------------------------------------------------------
// Outcome bookkeeping: jobs attempted/failed plus named checks.

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Ledger {
 public:
  /// Records `jobs` simulation jobs, `bad` of which failed.
  void jobs(int jobs, int bad) {
    attempted_ += jobs;
    failed_ += bad;
  }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    for (Check& c : checks_) {
      if (c.name != name) continue;
      if (!ok && c.ok) {
        c.ok = false;
        c.detail = detail;
      }
      return;
    }
    checks_.push_back(Check{name, ok, ok ? std::string() : detail});
  }
  bool ok() const {
    if (failed_ > 0 || attempted_ == 0) return false;
    for (const Check& c : checks_)
      if (!c.ok) return false;
    return true;
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<Check>& checks() const { return checks_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<Check> checks_;
};

// ---------------------------------------------------------------------------
// Host-speed calibration.
//
// The machines this benchmark runs on are shared, and their speed drifts
// by 20-30% within a minute: a fixed CPU loop timed in back-to-back 0.2-s
// runs read anywhere from 0.15 to 0.22 s. Every end-to-end host time is
// therefore scaled by the speed of a fixed calibration kernel — xorshift
// updates into a 256 KiB table, code that shares nothing with flexnet, so
// no change to the simulator changes its work — timed in ~1.4 ms bursts
// spread through each repetition. A reported second is a second on a host
// where one burst takes kReferenceBurstS (the median on the 4-vCPU Xeon VM
// the bounds were set on). Raw wall-clock values stay in the run record.
class HostSpeed {
 public:
  static constexpr double kReferenceBurstS = 1.4e-3;
  static constexpr double kIntervalS = 0.05;  ///< stepping between bursts

  /// Runs a burst when kIntervalS has passed since the last one. Returns
  /// the seconds it took (0 when none ran) so callers can exclude them.
  double maybe_burst() {
    return seconds_since(last_) < kIntervalS ? 0.0 : burst();
  }

  double burst() {
    const auto t0 = Clock::now();
    for (int i = 0; i < kIterations; ++i) {
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      std::uint32_t& slot = table_[state_ & (table_.size() - 1)];
      slot += static_cast<std::uint32_t>(state_ >> 32);
      if ((slot & 1) != 0) state_ += slot;
    }
    last_ = Clock::now();
    const double s = std::chrono::duration<double>(last_ - t0).count();
    window_.push_back(s);
    spent_ += s;
    return s;
  }

  /// Starts a window: factor() covers the bursts from here on.
  void begin() { window_.clear(); }

  /// Host slowdown over the window: mean burst time / reference. Bursts
  /// are spaced evenly in time, so the mean is the time-averaged speed.
  double factor() const {
    return window_.empty() ? 1.0 : mean(window_) / kReferenceBurstS;
  }

  /// Seconds spent in bursts since construction (excluded from wall time).
  double spent() const { return spent_; }

 private:
  static constexpr int kIterations = 100000;
  std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(1u << 16);
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  Clock::time_point last_ = Clock::now();
  std::vector<double> window_;
  double spent_ = 0.0;
};

// ---------------------------------------------------------------------------
// One directly driven simulation job.

struct JobRun {
  SimResult result;
  int routers = 0;
  double build_rss_mb = 0.0;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  std::int64_t grants = 0;
  std::int64_t re_requests = 0;
  std::int64_t escape_grants = 0;
  // Telemetry counters (traced jobs only).
  std::int64_t requests = 0;
  std::int64_t telem_grants = 0;
  std::int64_t conflicts = 0;
  std::int64_t steps = 0;
  std::int64_t active_links = 0;
  std::int64_t alloc_routers = 0;
  std::int64_t send_routers = 0;
  std::int64_t live_packets = 0;

  double router_cycles() const {
    return static_cast<double>(routers) *
           static_cast<double>(result.cycles);
  }
  double step_s() const { return warmup_s + measure_s; }
};

/// Steps `cfg` exactly as Simulator::run does (same warmup, measurement
/// window and deadlock watchdog, same SimResult fields), recording the
/// build's resident-set growth and timing the step loop on each side of
/// Metrics::begin_window, with calibration bursts between steps excluded
/// from both. A traced job
/// also counts telemetry and times every Network::step call into
/// `step_us`. Returns the network in its final state.
std::unique_ptr<Network> run_job(const SimConfig& cfg, bool traced,
                                 HostSpeed* speed, JobRun* out,
                                 std::vector<double>* step_us) {
  const double rss0 = current_rss_mb();
  auto net = std::make_unique<Network>(cfg);
  out->build_rss_mb = current_rss_mb() - rss0;
  net->set_telemetry_enabled(traced);
  out->routers = net->topology().num_routers();

  Cycle now = 0;
  double paused = 0.0;  // calibration seconds inside the current loop
  const auto step_deadlocked = [&]() {
    if (step_us != nullptr) {
      const auto t = Clock::now();
      net->step(now);
      step_us->push_back(seconds_since(t) * 1e6);
    } else {
      net->step(now);
    }
    paused += speed->maybe_burst();
    return net->packets_in_network() > 0 &&
           now - net->last_grant() > cfg.watchdog;
  };

  bool deadlock = false;
  const auto t_warm = Clock::now();
  for (; now < cfg.warmup; ++now)
    if (step_deadlocked()) {
      deadlock = true;
      break;
    }
  out->warmup_s = seconds_since(t_warm) - paused;
  if (!deadlock) {
    net->metrics().begin_window(now);
    const Cycle end = cfg.warmup + cfg.measure;
    paused = 0.0;
    const auto t_meas = Clock::now();
    for (; now < end; ++now)
      if (step_deadlocked()) {
        deadlock = true;
        break;
      }
    out->measure_s = seconds_since(t_meas) - paused;
  }

  SimResult& r = out->result;
  r = SimResult{};
  if (deadlock) {
    r.deadlock = true;
    r.cycles = now;
  } else {
    net->metrics().end_window(now);
    const int nodes = net->topology().num_nodes();
    const Metrics& m = net->metrics();
    r.offered = m.offered_load(nodes);
    r.accepted = m.accepted_load(nodes);
    r.avg_latency = m.latency().mean();
    r.avg_hops = m.hops().mean();
    r.request_latency = m.latency_of(MsgClass::kRequest).mean();
    r.reply_latency = m.latency_of(MsgClass::kReply).mean();
    r.latency_p50 = m.latency_hist().quantile(0.50);
    r.latency_p99 = m.latency_hist().quantile(0.99);
    r.latency_max = static_cast<double>(m.latency_hist().max_value());
    r.consumed_packets = m.consumed_packets();
    r.cycles = now;
  }

  out->grants = net->total_grants();
  out->re_requests = net->re_requests();
  out->escape_grants = net->escape_grants();
  const TelemetryCounters& t = net->telemetry();
  out->requests = t.total_requests();
  out->telem_grants = t.total_grants();
  out->conflicts = t.total_conflicts();
  out->steps = t.steps();
  out->active_links = t.active_links_sum();
  out->alloc_routers = t.alloc_routers_sum();
  out->send_routers = t.send_routers_sum();
  out->live_packets = t.live_packets_sum();
  return net;
}

/// Sums of a set of jobs (one rep's direct pass).
struct PassTotals {
  int jobs = 0;
  double first_build_rss_mb = 0.0;
  double router_cycles = 0.0;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  double consumed = 0.0;
  double grants = 0.0;
  double re_requests = 0.0;
  double escape_grants = 0.0;
  double requests = 0.0;
  double conflicts = 0.0;
  double steps = 0.0;
  double active_links = 0.0;
  double alloc_routers = 0.0;
  double send_routers = 0.0;
  double live_packets = 0.0;

  void add(const JobRun& j) {
    if (jobs++ == 0) first_build_rss_mb = j.build_rss_mb;
    router_cycles += j.router_cycles();
    warmup_s += j.warmup_s;
    measure_s += j.measure_s;
    consumed += static_cast<double>(j.result.consumed_packets);
    grants += static_cast<double>(j.grants);
    re_requests += static_cast<double>(j.re_requests);
    escape_grants += static_cast<double>(j.escape_grants);
    requests += static_cast<double>(j.requests);
    conflicts += static_cast<double>(j.conflicts);
    steps += static_cast<double>(j.steps);
    active_links += static_cast<double>(j.active_links);
    alloc_routers += static_cast<double>(j.alloc_routers);
    send_routers += static_cast<double>(j.send_routers);
    live_packets += static_cast<double>(j.live_packets);
  }
  double step_s() const { return warmup_s + measure_s; }
  double router_cycles_per_s() const { return ratio(router_cycles, step_s()); }
};

// ---------------------------------------------------------------------------
// The workload runner.

std::string json_string(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), work_(args.work) {
    suite_path_ = (fs::path(args.root) / spec.suite).string();
    extra_ = Options::parse_string(std::string(spec.pins) + " seed=" +
                                   std::to_string(args.seed));
    workers_ = std::max(
        1, std::min<int>(2, static_cast<int>(
                                std::thread::hardware_concurrency())));
    fs::create_directories(work_);
    if (spec.golden != nullptr &&
        (args.seed == kDefaultSeed || !args.expect_report.empty())) {
      const std::string path =
          args.expect_report.empty()
              ? (fs::path(args.root) / spec.golden).string()
              : args.expect_report;
      std::ifstream in(path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot read expected report " + path);
      std::ostringstream buf;
      buf << in.rdbuf();
      expected_report_ = buf.str();
      compare_report_ = true;
    }
  }

  void run() {
    if (args_.trace) {
      // The first untraced rep warms the heap (a fresh process pays page
      // faults the later reps do not); the overhead ratio compares the
      // traced rep with the untraced rep right after it. rep() checks
      // every rep against the first bit for bit.
      reps_.push_back(rep(false));
      traced_ = rep(true);
      reps_.push_back(rep(false));
      time_layer_calls();
    } else {
      const auto t0 = Clock::now();
      int n = 0;
      while (n < spec_.min_reps ||
             (n < kMaxReps && seconds_since(t0) < args_.seconds)) {
        reps_.push_back(rep(false));
        ++n;
      }
    }
  }

  const Ledger& ledger() const { return ledger_; }

  /// Per-sample values behind the reported medians, for the run record.
  std::string samples_json() const {
    const auto array = [](const std::vector<double>& v) {
      std::string out = "[";
      for (std::size_t i = 0; i < v.size(); ++i)
        out += (i == 0 ? "" : ",") + json_double(v[i]);
      return out + "]";
    };
    return "{\"wall_s_raw\":" + array(rep_walls(false)) +
           ",\"router_cycles_per_s_raw\":" + array(rep_rates(false)) +
           ",\"host_speed\":" + array(rep_speeds()) +
           ",\"setup_s_raw\":" + array(setup_s_) +
           ",\"setup_host_speed\":" + array(setup_speed_) + "}";
  }

  /// The metrics of this run, in the order BENCHMARK.json lists them.
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
  metrics() const {
    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;
    const auto put = [&](const char* name, double v, const char* unit) {
      m.push_back({name, {v, unit}});
    };
    if (!args_.trace) {
      const Rep& first = reps_.front();
      put("wall_s", median(rep_walls(true)), "s");
      put("router_cycles_per_s", median(rep_rates(true)), "router-cycles/s");
      put("setup_s", median(setup_normalized()), "s");
      put("peak_rss_mb", peak_rss_mb(), "MB");
      put("max_accepted", first.max_accepted, "phits/node/cycle");
      put("latency_p50_cyc", first.latency_p50, "cycles");
      put("latency_p99_cyc", first.latency_p99, "cycles");
      put("ok_frac",
          ratio(ledger_.attempted() - ledger_.failed(), ledger_.attempted()),
          "ratio");
      return m;
    }
    const PassTotals& t = traced_.direct;
    put("scenario.materialize_s", median(materialize_s_), "s");
    put("sim.build_s", median(build_s_), "s");
    put("sim.build_rss_mb", build_rss_mb_, "MB");
    put("topology.build_s", median(topology_s_), "s");
    put("core.policy_build_s", median(policy_s_), "s");
    put("sim.warmup_s", t.warmup_s, "s");
    put("sim.measure_s", t.measure_s, "s");
    put("sim.ns_per_router_cycle", ratio(t.step_s() * 1e9, t.router_cycles),
        "ns");
    put("sim.step_us_p50", quantile(step_us_, 0.50), "us");
    put("sim.step_us_p99", quantile(step_us_, 0.99), "us");
    put("sim.step_samples", static_cast<double>(step_us_.size()), "count");
    put("sim.ns_per_consumed", ratio(t.step_s() * 1e9, t.consumed), "ns");
    put("sim.re_requests_per_grant", ratio(t.re_requests, t.grants), "ratio");
    put("sim.escape_grant_frac", ratio(t.escape_grants, t.grants), "ratio");
    put("sim.live_packets_mean", ratio(t.live_packets, t.steps), "packets");
    put("telemetry.conflict_frac", ratio(t.conflicts, t.requests), "ratio");
    put("telemetry.active_links_mean", ratio(t.active_links, t.steps),
        "count");
    put("telemetry.alloc_routers_mean", ratio(t.alloc_routers, t.steps),
        "count");
    put("telemetry.send_routers_mean", ratio(t.send_routers, t.steps),
        "count");
    const Rep& after = reps_.back();
    put("telemetry.overhead_ratio",
        ratio(ratio(t.step_s() / traced_.speed, t.router_cycles),
              ratio(after.direct.step_s() / after.speed,
                    after.direct.router_cycles)),
        "ratio");
    put("runner.job_s_p50", quantile(traced_.job_s, 0.5), "s");
    put("runner.job_s_max", quantile(traced_.job_s, 1.0), "s");
    put("runner.parallel_eff", traced_.parallel_eff, "ratio");
    put("runner.journal_s", traced_.journal_s, "s");
    put("runner.merge_s", traced_.merge_s, "s");
    put("routing.route_ns", route_ns_, "ns");
    put("core.candidates_ns", candidates_ns_, "ns");
    return m;
  }

 private:
  /// One repetition of the workload as a user runs it, plus (for the
  /// sweep) a serial direct pass over the same jobs for the step rate.
  struct Rep {
    double wall_s = 0.0;  ///< raw host seconds, calibration excluded
    double speed = 1.0;   ///< HostSpeed::factor() over the rep
    PassTotals direct;
    std::vector<SimResult> results;  ///< per grid point (seed 0)
    double max_accepted = 0.0;
    double latency_p50 = 0.0;
    double latency_p99 = 0.0;
    // Runner layer (traced reps).
    std::vector<double> job_s;
    double parallel_eff = 0.0;
    double journal_s = 0.0;
    double merge_s = 0.0;
  };

  /// One value per untraced rep: raw, or normalized to the reference
  /// host speed (see HostSpeed).
  std::vector<double> rep_walls(bool normalized) const {
    std::vector<double> out;
    for (const Rep& r : reps_)
      out.push_back(normalized ? r.wall_s / r.speed : r.wall_s);
    return out;
  }
  std::vector<double> rep_rates(bool normalized) const {
    std::vector<double> out;
    for (const Rep& r : reps_)
      out.push_back(r.direct.router_cycles_per_s() *
                    (normalized ? r.speed : 1.0));
    return out;
  }
  std::vector<double> rep_speeds() const {
    std::vector<double> out;
    for (const Rep& r : reps_) out.push_back(r.speed);
    return out;
  }
  std::vector<double> setup_normalized() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < setup_s_.size(); ++i)
      out.push_back(setup_s_[i] / setup_speed_[i]);
    return out;
  }

  MaterializedSuite materialize() const {
    return materialize_for_run(suite_path_, &extra_);
  }

  /// Job configs of the grid (seed index 0 of every point), in point order.
  static std::vector<SimConfig> job_configs(const MaterializedSuite& suite) {
    std::vector<SimConfig> out;
    for (const ExperimentSeries& s : suite.grid)
      for (const double load : suite.spec.loads)
        out.push_back(SweepRunner::job_config(s.config, load, 0));
    return out;
  }

  std::string path(const char* name) const {
    return (fs::path(work_) / name).string();
  }

  void clear_work() const {
    for (const auto& entry : fs::directory_iterator(work_))
      fs::remove_all(entry.path());
  }

  /// setup_s samples: the time before the first simulated cycle — suite
  /// load and validation plus Network construction, summed over the
  /// workload's builds — repeated `setup_batch` times after every rep, so
  /// the samples spread over the whole run and all see the heap a rep
  /// leaves behind (a fresh process's first builds pay page faults the
  /// later ones do not). Traced runs also time the topology and VC-policy
  /// constructors on their own.
  void setup_batch() {
    speed_.begin();
    for (int k = 0; k < spec_.setup_batch; ++k) {
      speed_.burst();
      const auto t0 = Clock::now();
      const MaterializedSuite suite = materialize();
      const double mat = seconds_since(t0);
      double build = 0.0;
      double topo = 0.0;
      double policy = 0.0;
      for (const SimConfig& cfg : job_configs(suite)) {
        if (args_.trace) {
          auto t = Clock::now();
          const auto topology = topology_registry().at(cfg.topology).make(cfg);
          topo += seconds_since(t);
          t = Clock::now();
          const auto vc_policy = vc_policy_registry().at(cfg.policy).make(
              VcArrangement::parse(cfg.vcs));
          policy += seconds_since(t);
        }
        const auto t = Clock::now();
        const Network net(cfg);
        build += seconds_since(t);
      }
      setup_s_.push_back(mat + build);
      materialize_s_.push_back(mat);
      build_s_.push_back(build);
      topology_s_.push_back(topo);
      policy_s_.push_back(policy);
    }
    setup_speed_.resize(setup_s_.size(), speed_.factor());
  }

  Rep rep(bool traced) {
    clear_work();
    net_.reset();
    speed_.begin();
    speed_.burst();
    Rep r = spec_.sweep ? sweep_rep(traced) : direct_rep(traced);
    r.speed = speed_.factor();
    if (reference_.empty()) build_rss_mb_ = r.direct.first_build_rss_mb;
    setup_batch();
    // Every rep of one seed must reproduce the first rep bit for bit.
    if (!reference_.empty()) {
      bool same = r.results.size() == reference_.size();
      for (std::size_t p = 0; same && p < r.results.size(); ++p)
        same = result_bits_equal(r.results[p], reference_[p]);
      ledger_.check(traced ? "traced_equals_untraced" : "reps_reproduce",
                    same, "SimResults differ from the first repetition");
    } else {
      reference_ = r.results;
    }
    // Simulated metrics: accepted load is the best of the grid (the
    // paper's maximum throughput); latency percentiles are the mean over
    // the grid's jobs (the one job's own for single-job workloads).
    std::vector<double> p50;
    std::vector<double> p99;
    for (const SimResult& s : r.results) {
      if (s.deadlock) continue;
      r.max_accepted = std::max(r.max_accepted, s.accepted);
      p50.push_back(s.latency_p50);
      p99.push_back(s.latency_p99);
    }
    r.latency_p50 = mean(p50);
    r.latency_p99 = mean(p99);
    return r;
  }

  /// A single-job workload: suite -> build -> warmup -> measure -> journal
  /// -> merge -> report, with the job stepped here so its phases are timed.
  Rep direct_rep(bool traced) {
    Rep r;
    const double spent0 = speed_.spent();
    const auto t0 = Clock::now();
    const MaterializedSuite suite = materialize();
    const std::vector<SimConfig> configs = job_configs(suite);
    if (configs.size() != 1 || suite.seeds != 1)
      throw std::runtime_error(spec_.suite +
                               std::string(" must hold exactly one job"));
    JobRun job;
    const auto t_job = Clock::now();
    net_ = run_job(configs[0], traced, &speed_, &job,
                   traced ? &step_us_ : nullptr);
    const double job_s = seconds_since(t_job) - (speed_.spent() - spent0);
    r.direct.add(job);
    r.results.push_back(job.result);

    const auto t_journal = Clock::now();
    {
      CheckpointJournal journal(path("job.journal"));
      journal.open(suite.fingerprint, 1, 1);
      journal.append(0, 0, job.result);
      journal.close();
      if (journal.failed())
        throw std::runtime_error("could not write " + journal.path());
    }
    r.journal_s = seconds_since(t_journal);

    const auto t_merge = Clock::now();
    MergeOutputs outputs;
    outputs.out_journal = path("merged.journal");
    outputs.json_path = path("report.json");
    outputs.verbose = false;
    const MergeSummary summary = merge_suite_journals(
        suite, suite_path_, {path("job.journal")}, outputs);
    const JournalContents merged = read_journal(outputs.out_journal);
    r.merge_s = seconds_since(t_merge);
    r.wall_s = seconds_since(t0) - (speed_.spent() - spent0);
    speed_.burst();

    r.job_s.push_back(job_s);
    r.parallel_eff = ratio(job_s, r.wall_s);
    const bool round_trip = summary.complete() && merged.records.size() == 1 &&
                            result_bits_equal(merged.records[0].result,
                                              job.result);
    ledger_.check("journal_merge_round_trip", round_trip,
                  "merged journal does not reproduce the job's SimResult");
    check_job(job, traced);
    ledger_.jobs(1, job.result.deadlock || !round_trip ? 1 : 0);
    return r;
  }

  /// The sweep workload: the suite split into kShards shards, each run by
  /// a SweepRunner with its own journal (flexnet_run --shard --checkpoint),
  /// merged by merge_suite_journals (flexnet_merge) and rendered as the
  /// core-equivalence test renders it. Then a serial direct pass over the
  /// same jobs yields the step rate and re-checks every job's result.
  Rep sweep_rep(bool traced) {
    Rep r;
    const double spent0 = speed_.spent();
    const auto t0 = Clock::now();
    const MaterializedSuite suite = materialize();
    const std::size_t loads = suite.spec.loads.size();
    const std::size_t points = suite.grid.size() * loads;
    if (suite.seeds != 1)
      throw std::runtime_error(spec_.suite +
                               std::string(" must run one seed per point"));

    std::unique_ptr<TraceWriter> trace;
    TelemetryCounters counters;
    if (traced) trace = std::make_unique<TraceWriter>(path("trace.json"));
    std::vector<std::vector<SweepResult>> shard_rows;
    std::vector<ShardSpec> shard_specs;
    std::vector<std::string> journals;
    double shard_wall = 0.0;
    for (int i = 1; i <= kShards; ++i) {
      ShardSpec shard;
      std::string error;
      parse_shard_spec(std::to_string(i) + "/" + std::to_string(kShards),
                       &shard, &error);
      journals.push_back(path(("shard-" + std::to_string(i) + ".journal")
                                  .c_str()));
      SweepRunner runner(workers_);
      runner.set_checkpoint(journals.back());
      runner.set_shard(shard);
      if (traced) {
        runner.set_trace(trace.get());
        runner.set_telemetry(&counters);
      }
      const auto t_shard = Clock::now();
      shard_rows.push_back(runner.run(suite.grid, suite.spec.loads, 1));
      shard_wall += seconds_since(t_shard);
      shard_specs.push_back(shard);
      speed_.burst();  // the runner's threads cannot be interleaved
    }

    const auto t_merge = Clock::now();
    MergeOutputs outputs;
    outputs.out_journal = path("merged.journal");
    outputs.json_path = path("report.json");
    outputs.verbose = false;
    const MergeSummary summary =
        merge_suite_journals(suite, suite_path_, journals, outputs);
    std::vector<std::vector<SimResult>> slots(points,
                                              std::vector<SimResult>(1));
    for (const CheckpointRecord& rec :
         read_journal(outputs.out_journal).records)
      slots[rec.point][static_cast<std::size_t>(rec.seed)] = rec.result;
    const std::vector<SweepResult> sweeps =
        SweepRunner::reduce_slots(suite.grid, suite.spec.loads, slots);
    const std::string report = render_report(suite, sweeps);
    r.merge_s = seconds_since(t_merge);
    r.wall_s = seconds_since(t0) - (speed_.spent() - spent0);

    // Checks: full coverage; each merged row equals the row its owning
    // shard computed; the report equals the expected bytes.
    ledger_.check("merge_complete", summary.complete(),
                  std::to_string(summary.missing_jobs) + " jobs missing");
    std::vector<char> bad(points, 0);
    for (std::size_t p = 0; p < points; ++p) {
      const std::size_t s = p / loads;
      const std::size_t l = p % loads;
      const SimResult& merged = sweeps[s].rows[l].result;
      bool owned_equal = false;
      for (int i = 0; i < kShards; ++i)
        if (ShardPlan(points, 1, shard_specs[static_cast<std::size_t>(i)])
                .contains(p, 0))
          owned_equal = result_bits_equal(
              shard_rows[static_cast<std::size_t>(i)][s].rows[l].result,
              merged);
      if (!owned_equal || merged.deadlock) bad[p] = 1;
      r.results.push_back(slots[p][0]);
    }
    ledger_.check("merged_rows_equal_shard_rows",
                  std::count(bad.begin(), bad.end(), 1) == 0,
                  "a merged row differs from its shard's row or deadlocked");
    bool report_ok = true;
    if (compare_report_) {
      report_ok = report == expected_report_;
      ledger_.check("report_matches_expected", report_ok,
                    "merged report differs from the expected report");
    }

    if (traced) {
      trace->close();
      read_runner_spans(path("trace.json"), &r);
      r.parallel_eff =
          ratio(std::accumulate(r.job_s.begin(), r.job_s.end(), 0.0),
                static_cast<double>(workers_) * shard_wall);
      ledger_.check("requests_equal_grants_plus_conflicts",
                    counters.total_requests() ==
                        counters.total_grants() + counters.total_conflicts(),
                    "sweep telemetry breaks requests == grants + conflicts");
    }

    // Direct pass: the same jobs stepped here, serially.
    const std::vector<SimConfig> configs = job_configs(suite);
    for (std::size_t p = 0; p < points; ++p) {
      JobRun job;
      run_job(configs[p], traced, &speed_, &job,
              traced ? &step_us_ : nullptr);
      r.direct.add(job);
      const bool same = result_bits_equal(job.result, slots[p][0]);
      ledger_.check("direct_equals_sweep", same,
                    "a directly stepped job differs from its sweep record");
      check_job(job, traced);
      if (!same || job.result.deadlock) bad[p] = 1;
    }
    const int failed = report_ok
                           ? static_cast<int>(
                                 std::count(bad.begin(), bad.end(), 1))
                           : static_cast<int>(points);
    ledger_.jobs(static_cast<int>(points), failed);
    return r;
  }

  /// The report exactly as tests/test_core_equivalence.cpp renders it.
  std::string render_report(const MaterializedSuite& suite,
                            const std::vector<SweepResult>& sweeps) const {
    JsonReport report;
    report.set_meta("suite", fs::path(spec_.suite).filename().string());
    report.set_meta("title", suite.spec.title);
    report.set_meta("config", suite.grid.front().config.summary());
    report.set_meta("seeds", static_cast<std::int64_t>(suite.seeds));
    report.add_sweep(suite.spec.title, sweeps, /*wall_seconds=*/0.0);
    return report.to_json();
  }

  /// Job spans ("job") and journal I/O spans ("checkpoint") the runner
  /// wrote through SweepRunner::set_trace.
  static void read_runner_spans(const std::string& trace_path, Rep* r) {
    std::ifstream in(trace_path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    JsonValue doc;
    std::string error;
    if (!json_parse(text.str(), &doc, &error))
      throw std::runtime_error("unreadable runner trace: " + error);
    const JsonValue* events = doc.find("traceEvents");
    if (events == nullptr) throw std::runtime_error("runner trace: no events");
    for (const JsonValue& ev : events->array) {
      const std::string cat =
          ev.find("cat") != nullptr ? ev.find("cat")->string_or("") : "";
      const double dur_s =
          (ev.find("dur") != nullptr ? ev.find("dur")->number_or(0.0) : 0.0) /
          1e6;
      if (cat == "job") r->job_s.push_back(dur_s);
      if (cat == "checkpoint") r->journal_s += dur_s;
    }
  }

  void check_job(const JobRun& job, bool traced) {
    ledger_.check("no_deadlock", !job.result.deadlock,
                  "a job deadlocked at cycle " +
                      std::to_string(job.result.cycles));
    if (traced)
      ledger_.check("requests_equal_grants_plus_conflicts",
                    job.requests == job.telem_grants + job.conflicts,
                    "telemetry breaks requests == grants + conflicts");
  }

  /// routing.route_ns and core.candidates_ns: per-call cost of
  /// RoutingAlgorithm::route and VcPolicy::candidates on packets sampled
  /// from the workload's topology (fresh heads at their source router,
  /// uniform destinations), against each of the workload's networks.
  void time_layer_calls() {
    const MaterializedSuite suite = materialize();
    const std::vector<SimConfig> configs = job_configs(suite);
    const double budget_s = 0.4 / static_cast<double>(configs.size());
    double route_s = 0.0;
    double route_calls = 0.0;
    double cand_s = 0.0;
    double cand_calls = 0.0;
    std::size_t sink = 0;
    for (const SimConfig& cfg : configs) {
      // Single-job workloads reuse the stepped network (adaptive routing
      // then reads its end-of-run congestion); sweeps build one per job.
      std::unique_ptr<Network> fresh;
      Network* net = net_.get();
      if (net == nullptr || configs.size() > 1) {
        fresh = std::make_unique<Network>(cfg);
        net = fresh.get();
      }
      const Topology& topo = net->topology();
      Rng rng(args_.seed * 0x9e3779b97f4a7c15ULL + 7);
      std::vector<Packet> pkts;
      std::vector<RouterId> at;
      for (int i = 0; i < 1024; ++i) {
        Packet pkt;
        pkt.src = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
        do {
          pkt.dst = static_cast<NodeId>(
              rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
        } while (topo.router_of_node(pkt.dst) == topo.router_of_node(pkt.src));
        pkt.size = cfg.effective_packet_phits();
        pkt.cls = MsgClass::kRequest;
        pkts.push_back(pkt);
        at.push_back(topo.router_of_node(pkt.src));
      }

      std::vector<RouteOption> options;
      std::vector<HopContext> contexts;
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        options.clear();
        net->routing().route(pkts[i], at[i], rng, options);
        for (const RouteOption& opt : options) {
          if (opt.ejection) continue;
          HopContext ctx;
          ctx.cls = pkts[i].cls;
          ctx.hop_type = opt.hop_type;
          ctx.position = kInjectionPosition;
          ctx.intended_after = opt.intended_after;
          ctx.escape_after = opt.escape_after;
          contexts.push_back(ctx);
        }
      }

      auto t0 = Clock::now();
      do {
        for (std::size_t i = 0; i < pkts.size(); ++i) {
          options.clear();
          net->routing().route(pkts[i], at[i], rng, options);
          sink += options.size();
        }
        route_calls += static_cast<double>(pkts.size());
      } while (seconds_since(t0) < budget_s);
      route_s += seconds_since(t0);

      std::vector<VcCandidate> cands;
      t0 = Clock::now();
      do {
        for (const HopContext& ctx : contexts) {
          cands.clear();
          net->policy().candidates(ctx, cands);
          sink += cands.size();
        }
        cand_calls += static_cast<double>(contexts.size());
      } while (seconds_since(t0) < budget_s);
      cand_s += seconds_since(t0);
    }
    route_ns_ = ratio(route_s * 1e9, route_calls);
    candidates_ns_ = ratio(cand_s * 1e9, cand_calls);
    ledger_.check("layer_calls_sampled", sink > 0 && cand_calls > 0.0,
                  "no routing options or VC candidates sampled");
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  std::string work_;
  std::string suite_path_;
  Options extra_;
  int workers_ = 1;
  bool compare_report_ = false;
  std::string expected_report_;

  Ledger ledger_;
  std::vector<SimResult> reference_;
  std::vector<Rep> reps_;
  Rep traced_;
  std::unique_ptr<Network> net_;
  std::vector<double> step_us_;
  HostSpeed speed_;
  std::vector<double> setup_s_;
  std::vector<double> setup_speed_;  ///< HostSpeed factor per setup sample
  std::vector<double> materialize_s_;
  std::vector<double> build_s_;
  std::vector<double> topology_s_;
  std::vector<double> policy_s_;
  double build_rss_mb_ = 0.0;
  double route_ns_ = 0.0;
  double candidates_ns_ = 0.0;
};

int usage() {
  std::fprintf(stderr,
               "usage: flexbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --root REPO --work DIR [--expect-report PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> cleared = clear_flexnet_environment();

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--work") {
      args.work = value;
    } else if (flag == "--expect-report") {
      args.expect_report = value;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (args.workload == w.name) spec = &w;
  if (spec == nullptr || args.work.empty()) return usage();

  std::unique_ptr<Bench> bench;
  try {
    bench = std::make_unique<Bench>(args, *spec);
    bench->run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flexbench: %s\n", e.what());
    return 2;
  }

  const Ledger& ledger = bench->ledger();
  std::string out = "{\"workload\":" + json_string(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"ok\":" + (ledger.ok() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(ledger.attempted()) +
                    ",\"failed\":" + std::to_string(ledger.failed()) +
                    ",\"checks\":[";
  for (std::size_t i = 0; i < ledger.checks().size(); ++i) {
    const Check& c = ledger.checks()[i];
    out += (i == 0 ? "" : ",") + std::string("{\"name\":") +
           json_string(c.name) + ",\"ok\":" + (c.ok ? "true" : "false") +
           ",\"detail\":" + json_string(c.detail) + "}";
    if (!c.ok)
      std::fprintf(stderr, "flexbench: check %s failed: %s\n", c.name.c_str(),
                   c.detail.c_str());
  }
  out += "],\"metrics\":{";
  const auto metrics = bench->metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i == 0 ? "" : ",") + json_string(metrics[i].first) +
           ":{\"value\":" + json_double(metrics[i].second.first) +
           ",\"unit\":" + json_string(metrics[i].second.second) + "}";
  out += "},\"samples\":" + bench->samples_json() + ",\"stamp\":{\"compiler\":" + json_string(__VERSION__) +
         ",\"build_type\":" + json_string(FLEXBENCH_BUILD_TYPE) +
         ",\"hardware_threads\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"cleared_env\":[";
  for (std::size_t i = 0; i < cleared.size(); ++i)
    out += (i == 0 ? "" : ",") + json_string(cleared[i]);
  out += "]}}";
  std::printf("%s\n", out.c_str());
  return ledger.ok() ? 0 : 1;
}
