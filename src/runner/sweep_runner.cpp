#include "runner/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <type_traits>

#include "runner/checkpoint.hpp"
#include "runner/thread_pool.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace flexnet {

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

SweepRunner& SweepRunner::set_heartbeat(std::string path) {
  heartbeat_path_ = std::move(path);
  heartbeat_set_ = true;
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

  const auto point_index = [&](std::size_t s, std::size_t l) {
    return s * loads.size() + l;
  };

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
  // Jobs this process owns = the grid minus other shards' jobs; the
  // heartbeat below reports progress against this denominator.
  std::size_t excluded = 0;
  for (const auto& row : done)
    for (const char d : row) excluded += d != 0 ? 1u : 0u;

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

  // Heartbeat sidecar: progress records for whoever watches the run
  // (flexnet_run --progress, orchestrator liveness probes).
  std::unique_ptr<HeartbeatWriter> heartbeat;
  {
    std::size_t filled = 0;
    for (const auto& row : done)
      for (const char d : row) filled += d != 0 ? 1u : 0u;
    std::string hb_path = heartbeat_set_            ? heartbeat_path_
                          : checkpoint_path_.empty() ? std::string()
                                                     : checkpoint_path_ + ".hb";
    if (!hb_path.empty()) {
      heartbeat = std::make_unique<HeartbeatWriter>(std::move(hb_path));
      heartbeat->begin(num_points * static_cast<std::size_t>(n_seeds) -
                           excluded,
                       filled - excluded);
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

  // One simulation job: runs (s, l, seed k), writes its pre-sized slot,
  // journals, and feeds the observability sinks. Called from the serial
  // loop and from pool workers alike.
  std::mutex telemetry_mu;
  const auto run_job = [&](std::size_t s, std::size_t l, std::size_t p,
                           int k) {
    Simulator sim(job_config(series[s].config, loads[l], k));
    if (telemetry_ != nullptr) sim.set_telemetry(true);
    const int job_pid = 1 + static_cast<int>(p) * n_seeds + k;
    if (trace_ != nullptr && trace_packets_) sim.set_trace(trace_, job_pid);
    SimResult r;
    {
      TraceWriter::Span span;
      if (trace_ != nullptr) {
        char name[96];
        std::snprintf(name, sizeof(name), "%s load=%g seed=%d",
                      series[s].label.c_str(), loads[l], k);
        span = trace_->span("job", name, ThreadPool::current_worker());
        if (trace_packets_) trace_->process_name(job_pid, name);
      }
      r = sim.run();
    }
    if (telemetry_ != nullptr) {
      // Elementwise integer addition under a lock: commutative and
      // associative, so the aggregate is independent of completion order.
      std::lock_guard<std::mutex> lock(telemetry_mu);
      telemetry_->merge(sim.network()->telemetry());
    }
    per_seed[p][static_cast<std::size_t>(k)] = r;
    if (journal) journal->append(p, k, r);
    if (heartbeat) heartbeat->on_job(r.cycles);
    if (crash_after > 0 &&
        crash_jobs.fetch_add(1, std::memory_order_relaxed) + 1 ==
            crash_after) {
      std::raise(SIGKILL);
    }
  };

  if (jobs_ <= 1) {
    // Serial path: identical visiting order to the historical harness.
    for (std::size_t s = 0; s < series.size(); ++s) {
      for (std::size_t l = 0; l < loads.size(); ++l) {
        const std::size_t p = point_index(s, l);
        auto& slots = per_seed[p];
        for (int k = 0; k < n_seeds; ++k) {
          if (done[p][static_cast<std::size_t>(k)]) continue;
          run_job(s, l, p, k);
        }
        if (progress)
          progress(series[s].label, loads[l], aggregate_seeds(slots));
      }
    }
  } else {
    // remaining[p] counts outstanding seeds of point p; the worker that
    // finishes a point's last seed reports its progress.
    std::vector<std::atomic<int>> remaining(num_points);
    std::mutex progress_mu;

    ThreadPool pool(jobs_);
    for (std::size_t s = 0; s < series.size(); ++s) {
      for (std::size_t l = 0; l < loads.size(); ++l) {
        const std::size_t p = point_index(s, l);
        int missing = 0;
        for (int k = 0; k < n_seeds; ++k)
          if (!done[p][static_cast<std::size_t>(k)]) ++missing;
        remaining[p].store(missing);
        if (missing == 0) {
          // Point fully restored from the journal: report it directly —
          // parallel-mode progress order is unspecified anyway.
          if (progress) {
            const SimResult agg = aggregate_seeds(per_seed[p]);
            std::lock_guard<std::mutex> lock(progress_mu);
            progress(series[s].label, loads[l], agg);
          }
          continue;
        }
        for (int k = 0; k < n_seeds; ++k) {
          if (done[p][static_cast<std::size_t>(k)]) continue;
          pool.submit([&, s, l, p, k] {
            run_job(s, l, p, k);
            if (remaining[p].fetch_sub(1) == 1 && progress) {
              const SimResult agg = aggregate_seeds(per_seed[p]);
              std::lock_guard<std::mutex> lock(progress_mu);
              progress(series[s].label, loads[l], agg);
            }
          });
        }
      }
    }
    pool.wait_idle();
  }
  if (heartbeat) heartbeat->finish();
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

SimResult SweepRunner::run_point(const SimConfig& config, int seeds) const {
  const int n_seeds = std::max(1, seeds);
  std::vector<SimResult> per_seed(static_cast<std::size_t>(n_seeds));
  if (jobs_ <= 1 || n_seeds == 1) {
    for (int k = 0; k < n_seeds; ++k)
      per_seed[static_cast<std::size_t>(k)] =
          Simulator(job_config(config, config.load, k)).run();
  } else {
    ThreadPool pool(std::min(jobs_, n_seeds));
    for (int k = 0; k < n_seeds; ++k) {
      pool.submit([&per_seed, &config, k] {
        per_seed[static_cast<std::size_t>(k)] =
            Simulator(job_config(config, config.load, k)).run();
      });
    }
    pool.wait_idle();
  }
  return aggregate_seeds(per_seed);
}

}  // namespace flexnet
