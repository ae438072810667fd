// Parallel sweep runner: shards a (series x load x seed) grid into one
// independent simulation job per point-seed, runs the jobs across a
// ThreadPool, and deterministically re-aggregates per-seed results into
// the SweepResult rows of the serial harness.
//
// Determinism contract: the aggregated rows are bit-identical for any
// worker count and any job completion order. Every job writes its
// SimResult into a pre-sized slot indexed by (series, load, seed), and
// aggregation is a single seed-ordered reduction over those slots —
// floating-point accumulation order therefore never depends on
// scheduling. Only the progress callback's invocation order varies.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runner/shard.hpp"
#include "sim/experiment.hpp"

namespace flexnet {

class TelemetryCounters;
class TraceWriter;

class SweepRunner {
 public:
  /// `jobs` worker threads; <= 1 runs everything inline on the calling
  /// thread (the serial path).
  explicit SweepRunner(int jobs = 1);

  int jobs() const { return jobs_; }

  /// Journals every completed job of subsequent run() calls to `path`
  /// (see runner/checkpoint.hpp) and, when the journal already holds
  /// results for the *same* grid, resumes: completed jobs are pre-filled
  /// from the journal and only the remainder is simulated. A journal for
  /// a different grid (changed config, loads, labels, or seed count) is a
  /// hard CheckpointError, never silent reuse. Resumed sweeps aggregate
  /// through the same seed-ordered reduction, so their rows are
  /// bit-identical to an uninterrupted run at any worker count. An empty
  /// path disables checkpointing (the default).
  SweepRunner& set_checkpoint(std::string path);

  const std::string& checkpoint_path() const { return checkpoint_path_; }

  /// Restricts subsequent run() calls to the jobs of `shard` (see
  /// runner/shard.hpp): (point, seed) jobs owned by other shards are
  /// neither simulated nor journaled and their slots aggregate as zeros,
  /// so a sharded run's rows are partial by design — the journal written
  /// under set_checkpoint holds exactly this shard's records and is the
  /// run's real output. The checkpoint fingerprint still covers the FULL
  /// grid (never the shard spec), so the N shard journals of a grid stay
  /// mutually mergeable (merge_journals / tools/flexnet_merge) and the
  /// merged report is bit-identical to a single-process run. Resuming a
  /// sharded run from its own journal re-runs only the shard's missing
  /// jobs. Does not affect run_point().
  SweepRunner& set_shard(ShardSpec shard);

  const ShardSpec& shard() const { return shard_; }

  /// Aggregates every job's telemetry counters (telemetry/telemetry.hpp)
  /// into `aggregate` during subsequent run() calls, and enables counting
  /// for those jobs. Merging is elementwise integer addition — commutative
  /// and associative — so the aggregate is bit-identical for any worker
  /// count and completion order. Jobs pre-filled from a checkpoint journal
  /// were not simulated and contribute nothing. nullptr (default) disables.
  SweepRunner& set_telemetry(TelemetryCounters* aggregate);

  /// Emits Chrome-trace spans (telemetry/trace.hpp) for subsequent run()
  /// calls: one span per simulation job on its worker's track, plus the
  /// checkpoint journal's I/O spans. A job span's args carry the seconds
  /// each Network::step phase took (telemetry/phase_timers.hpp, keyed by
  /// phase name), the job's `grants` and its `state_gather` path; tracing
  /// therefore enables counting for the jobs, which changes no result.
  /// With `packet_spans`, every job also records per-packet lifetime spans
  /// under its own trace process (pid = 1 + global job index; ts in
  /// simulation cycles). nullptr disables.
  SweepRunner& set_trace(TraceWriter* trace, bool packet_spans = false);

  /// Appends heartbeat progress records to `path` during run() (see
  /// telemetry/heartbeat.hpp). Defaults to the checkpoint sidecar
  /// "<checkpoint>.hb" when a checkpoint path is set; an explicit empty
  /// path after set_checkpoint disables the sidecar too.
  SweepRunner& set_heartbeat(std::string path);

  /// Runs the full grid. `progress` (optional) is invoked once per
  /// aggregated (series, load) point as it completes; invocations are
  /// serialised internally, so the callback itself only needs to be
  /// reentrant with respect to its own captured state.
  std::vector<SweepResult> run(
      const std::vector<ExperimentSeries>& series,
      const std::vector<double>& loads, int seeds,
      const std::function<void(const std::string&, double, const SimResult&)>&
          progress = nullptr) const;

  /// One aggregated point: `seeds` runs with derived seeds (base seed,
  /// base+1, ...), sharded across the pool, reduced with aggregate_seeds.
  SimResult run_point(const SimConfig& config, int seeds) const;

  /// The per-job config: `base` at offered load `load` with the
  /// seed_index-th derived seed.
  static SimConfig job_config(const SimConfig& base, double load,
                              int seed_index);

  /// Seed-ordered reduction of per-seed results into the averaged point.
  /// A deadlocked seed marks the point deadlocked and is excluded from
  /// the offered/accepted/latency/hops averages, which are taken over the
  /// surviving seeds only; consumed_packets and cycles stay totals.
  static SimResult aggregate_seeds(const std::vector<SimResult>& per_seed);

  /// Grid-order reduction of the full slot matrix (`per_seed[point][seed]`
  /// with point = series_index * loads.size() + load_index) into labeled
  /// sweep rows — the final step of run(), shared with tools/flexnet_merge
  /// so a merged report aggregates through exactly the runner's code.
  static std::vector<SweepResult> reduce_slots(
      const std::vector<ExperimentSeries>& series,
      const std::vector<double>& loads,
      const std::vector<std::vector<SimResult>>& per_seed);

 private:
  int jobs_ = 1;
  std::string checkpoint_path_;
  ShardSpec shard_;
  TelemetryCounters* telemetry_ = nullptr;
  TraceWriter* trace_ = nullptr;
  bool trace_packets_ = false;
  std::string heartbeat_path_;
  bool heartbeat_set_ = false;
};

}  // namespace flexnet
