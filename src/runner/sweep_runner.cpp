#include "runner/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

#include "runner/checkpoint.hpp"
#include "sim/network.hpp"
#include "telemetry/phase_timers.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace flexnet {

void run_jobs(std::size_t count, int workers,
              const std::function<void(std::size_t, int)>& job) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  std::size_t error_index = count;
  const auto work = [&](int worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        job(i, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  const std::size_t n =
      std::min(static_cast<std::size_t>(std::max(1, workers)), count);
  std::vector<std::thread> threads;
  threads.reserve(n);
  try {
    for (std::size_t w = 1; w <= n; ++w)
      threads.emplace_back(work, static_cast<int>(w));
  } catch (...) {
    // No thread to spare: stop the started workers and fail the run.
    failed.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

SweepRunner::SweepRunner(int jobs) : jobs_(std::max(1, jobs)) {}

SweepRunner& SweepRunner::set_checkpoint(std::string path) {
  checkpoint_path_ = std::move(path);
  return *this;
}

SweepRunner& SweepRunner::set_shard(ShardSpec shard) {
  shard_ = shard;
  return *this;
}

SweepRunner& SweepRunner::set_telemetry(TelemetryCounters* aggregate) {
  telemetry_ = aggregate;
  return *this;
}

SweepRunner& SweepRunner::set_trace(TraceWriter* trace, bool packet_spans) {
  trace_ = trace;
  trace_packets_ = packet_spans;
  return *this;
}

SimConfig SweepRunner::job_config(const SimConfig& base, double load,
                                  int seed_index) {
  SimConfig cfg = base;
  cfg.load = load;
  cfg.seed = base.seed + static_cast<std::uint64_t>(seed_index);
  return cfg;
}

namespace {

/// Folds one seed's value `v` of a field into the point's `acc` under
/// `rule`, in seed order.
template <typename T>
void fold_seed(SeedRule rule, T& acc, T v, bool survivor, int survivors) {
  if constexpr (std::is_same_v<T, bool>) {
    acc = acc || v;  // kAny, the one rule for flags (simulator.hpp)
  } else {
    switch (rule) {
      case SeedRule::kMean:
        if (survivor) acc += v / survivors;
        break;
      case SeedRule::kMax:
        if (survivor) acc = std::max(acc, v);
        break;
      case SeedRule::kSum:
        if (survivor) acc += v;
        break;
      case SeedRule::kSumAll:
        acc += v;
        break;
      case SeedRule::kAny:
        break;
    }
  }
}

/// The args of a job's trace span: the seconds each Network::step phase
/// took, the job's grants, and whether allocation ran the state gather.
std::string job_span_args(const Network& net) {
  std::string out = "{";
  char buf[96];
  for (int p = 0; p < PhaseTimers::kPhases; ++p) {
    const auto phase = static_cast<StepPhase>(p);
    std::snprintf(buf, sizeof(buf), "\"%s\":%.9g,", PhaseTimers::name(phase),
                  net.phase_times().seconds(phase));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "\"grants\":%lld,\"state_gather\":%s}",
                static_cast<long long>(net.total_grants()),
                net.state_gather() ? "true" : "false");
  return out + buf;
}

}  // namespace

SimResult SweepRunner::aggregate_seeds(const std::vector<SimResult>& per_seed) {
  SimResult avg;
  int survivors = 0;
  for (const auto& r : per_seed)
    if (!r.deadlock) ++survivors;
  for_each_result_field([&](const auto& field) {
    for (const SimResult& r : per_seed)
      fold_seed(field.rule, avg.*field.member, r.*field.member, !r.deadlock,
                survivors);
  });
  return avg;
}

std::vector<SweepResult> SweepRunner::run(
    const std::vector<ExperimentSeries>& series,
    const std::vector<double>& loads, int seeds,
    const std::function<void(const std::string&, double, const SimResult&)>&
        progress) const {
  const int n_seeds = std::max(1, seeds);
  const std::size_t num_points = series.size() * loads.size();

  // One result slot per (series, load, seed); jobs write only their slot.
  std::vector<std::vector<SimResult>> per_seed(
      num_points, std::vector<SimResult>(static_cast<std::size_t>(n_seeds)));
  // done[p][k]: slot pre-filled from the checkpoint journal, skip its job.
  std::vector<std::vector<char>> done(
      num_points, std::vector<char>(static_cast<std::size_t>(n_seeds), 0));

  // Sharded run: jobs owned by other shards are marked done up front —
  // never simulated, never journaled; their zeroed slots make the rows
  // partial. The checkpoint below still fingerprints the FULL grid, so
  // journals of sibling shards merge.
  if (shard_.sharded()) {
    const ShardPlan plan(num_points, n_seeds, shard_);
    for (std::size_t p = 0; p < num_points; ++p)
      for (int k = 0; k < n_seeds; ++k)
        if (!plan.contains(p, k)) done[p][static_cast<std::size_t>(k)] = 1;
  }
  // Resume: pre-fill completed slots from the journal (fingerprint
  // validated inside open — a journal for a different grid throws) and
  // journal every job completed from here on.
  std::unique_ptr<CheckpointJournal> journal;
  if (!checkpoint_path_.empty()) {
    journal = std::make_unique<CheckpointJournal>(checkpoint_path_);
    if (trace_ != nullptr) journal->set_trace(trace_);
    const auto records = journal->open(
        grid_fingerprint(series, loads, n_seeds), num_points, n_seeds);
    for (const auto& rec : records) {
      per_seed[rec.point][static_cast<std::size_t>(rec.seed)] = rec.result;
      done[rec.point][static_cast<std::size_t>(rec.seed)] = 1;
    }
  }

  // Deterministic fault hook for the orchestrator's test battery and CI:
  // with FLEXNET_FAULT_CRASH_AFTER_JOBS=K set, the process SIGKILLs
  // itself the moment its K-th job of this run completes — exactly the
  // node-loss crash (stdio buffers lost, journal tail possibly torn) the
  // checkpoint/restart machinery must absorb. Unset (the only state
  // outside fault tests), the hook costs one getenv per run().
  const char* crash_env = std::getenv("FLEXNET_FAULT_CRASH_AFTER_JOBS");
  const long crash_after = crash_env != nullptr ? std::atol(crash_env) : 0;
  std::atomic<long> crash_jobs{0};

  // The pending (point, seed) jobs in grid order. remaining[p] counts
  // point p's pending seeds; whoever finishes its last one reports it, and
  // a point fully restored from the journal reports before any job runs.
  std::vector<std::pair<std::size_t, int>> pending;
  std::vector<std::atomic<int>> remaining(num_points);
  std::mutex progress_mu;
  const auto report_point = [&](std::size_t p) {
    if (!progress) return;
    const SimResult agg = aggregate_seeds(per_seed[p]);
    std::lock_guard<std::mutex> lock(progress_mu);
    progress(series[p / loads.size()].label, loads[p % loads.size()], agg);
  };
  for (std::size_t p = 0; p < num_points; ++p) {
    int missing = 0;
    for (int k = 0; k < n_seeds; ++k) {
      if (done[p][static_cast<std::size_t>(k)]) continue;
      pending.emplace_back(p, k);
      ++missing;
    }
    remaining[p].store(missing);
    if (missing == 0) report_point(p);
  }

  // One simulation job: runs (point p, seed k) on trace track `worker`,
  // writes its pre-sized slot, journals, and feeds the observability sinks.
  std::mutex telemetry_mu;
  run_jobs(pending.size(), jobs_, [&](std::size_t i, int worker) {
    const auto [p, k] = pending[i];
    const ExperimentSeries& s = series[p / loads.size()];
    const double load = loads[p % loads.size()];
    Simulator sim(job_config(s.config, load, k));
    // A traced job's span carries its step phases, which the network
    // times only while counting; counting never changes a result.
    if (telemetry_ != nullptr || trace_ != nullptr) sim.set_telemetry(true);
    const int job_pid = 1 + static_cast<int>(p) * n_seeds + k;
    if (trace_ != nullptr && trace_packets_) sim.set_trace(trace_, job_pid);
    SimResult r;
    if (trace_ != nullptr) {
      char name[96];
      std::snprintf(name, sizeof(name), "%s load=%g seed=%d",
                    s.label.c_str(), load, k);
      if (trace_packets_) trace_->process_name(job_pid, name);
      const double start_us = trace_->now_us();
      r = sim.run();
      trace_->complete("job", name, /*pid=*/0, worker, start_us,
                       trace_->now_us() - start_us,
                       job_span_args(*sim.network()));
    } else {
      r = sim.run();
    }
    if (telemetry_ != nullptr) {
      // Elementwise integer addition under a lock: commutative and
      // associative, so the aggregate is independent of completion order.
      std::lock_guard<std::mutex> lock(telemetry_mu);
      telemetry_->merge(sim.network()->telemetry());
    }
    per_seed[p][static_cast<std::size_t>(k)] = r;
    if (journal) journal->append(p, k, r, worker);
    if (crash_after > 0 &&
        crash_jobs.fetch_add(1, std::memory_order_relaxed) + 1 ==
            crash_after) {
      std::raise(SIGKILL);
    }
    if (remaining[p].fetch_sub(1) == 1) report_point(p);
  });
  if (journal) {
    journal->close();
    // A journal that lost appends mid-run (disk full, yanked mount) must
    // fail the process loudly: an exit-0 shard with a silently incomplete
    // journal would make the orchestrator skip the restart that recovers
    // the records. The results in memory are complete, but the run's
    // durable output is not.
    if (journal->failed())
      throw CheckpointIoError(
          "checkpoint journal " + checkpoint_path_ +
          " lost records to an I/O failure; re-run with the same "
          "--checkpoint to resume from the last good record");
  }

  // Deterministic reduction: grid order, never completion order.
  return reduce_slots(series, loads, per_seed);
}

std::vector<SweepResult> SweepRunner::reduce_slots(
    const std::vector<ExperimentSeries>& series,
    const std::vector<double>& loads,
    const std::vector<std::vector<SimResult>>& per_seed) {
  std::vector<SweepResult> out;
  out.reserve(series.size());
  for (std::size_t s = 0; s < series.size(); ++s) {
    SweepResult sweep;
    sweep.label = series[s].label;
    for (std::size_t l = 0; l < loads.size(); ++l) {
      SweepRow row;
      row.load = loads[l];
      row.result = aggregate_seeds(per_seed[s * loads.size() + l]);
      sweep.rows.push_back(row);
    }
    out.push_back(std::move(sweep));
  }
  return out;
}

}  // namespace flexnet
