#include "runner/merge.hpp"

#include <cstdio>
#include <string>

#include "common/log.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json_report.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/experiment.hpp"

namespace flexnet {

MergeSummary merge_suite_journals(const MaterializedSuite& suite,
                                  const std::string& suite_path,
                                  const std::vector<std::string>& journal_paths,
                                  const MergeOutputs& outputs) {
  const std::size_t num_points = suite.grid.size() * suite.spec.loads.size();

  MergeSummary summary;
  summary.total_jobs = num_points * static_cast<std::size_t>(suite.seeds);

  // Read every shard journal (read-only, torn tails tolerated) and check
  // it against the grid this suite + overrides materializes to. In
  // tolerant mode an input that does not parse yet is this tick's
  // no-show; a parsed journal for a different grid is fatal either way.
  std::vector<ShardJournal> shards;
  shards.reserve(journal_paths.size());
  for (const std::string& path : journal_paths) {
    JournalContents contents;
    if (outputs.tolerate_unreadable_inputs) {
      try {
        contents = read_journal(path);
      } catch (const CheckpointError&) {
        ++summary.inputs_skipped;
        continue;
      }
    } else {
      contents = read_journal(path);
    }
    if (contents.fingerprint != suite.fingerprint ||
        contents.points != num_points || contents.seeds != suite.seeds) {
      throw CheckpointError(
          "shard journal " + path +
          " does not match this sweep grid — it was written for a "
          "different suite, config, load grid, seed count, or overrides");
    }
    shards.push_back(ShardJournal{path, std::move(contents)});
  }
  summary.inputs_read = shards.size();

  const std::vector<CheckpointRecord> records =
      shards.empty() ? std::vector<CheckpointRecord>{}
                     : merge_journals(shards);
  summary.merged_records = records.size();
  summary.missing_jobs = summary.total_jobs - records.size();

  if (summary.missing_jobs > 0 && outputs.verbose) {
    log_warn("merged journals cover " + std::to_string(records.size()) +
             " of " + std::to_string(summary.total_jobs) + " jobs (" +
             std::to_string(summary.missing_jobs) +
             " missing) — the report below is partial; re-run the "
             "missing shard(s) and merge again");
  }

  if (!outputs.out_journal.empty()) {
    CheckpointJournal merged(outputs.out_journal);
    merged.open(suite.fingerprint, num_points, suite.seeds);
    for (const CheckpointRecord& rec : records)
      merged.append(rec.point, rec.seed, rec.result);
    merged.close();
    if (merged.failed())
      throw CheckpointIoError("could not write merged journal " +
                              outputs.out_journal);
    if (outputs.verbose)
      std::fprintf(stderr, "merged journal written to %s (%zu records)\n",
                   outputs.out_journal.c_str(), records.size());
  }

  if (!outputs.json_path.empty()) {
    // The runner's aggregation path: one slot per (point, seed), filled
    // from the merged records, reduced by the runner's own grid-order
    // reduction — identical to SweepRunner::run on the same grid.
    std::vector<std::vector<SimResult>> per_seed(
        num_points,
        std::vector<SimResult>(static_cast<std::size_t>(suite.seeds)));
    for (const CheckpointRecord& rec : records)
      per_seed[rec.point][static_cast<std::size_t>(rec.seed)] = rec.result;
    const std::vector<SweepResult> sweeps = SweepRunner::reduce_slots(
        suite.grid, suite.spec.loads, per_seed);

    if (outputs.verbose) {
      print_sweep_table(suite.spec.title, sweeps);
      print_throughput_summary(suite.spec.title, sweeps);
    }

    JsonReport report = suite_report(suite_path, suite);
    report.set_meta("merged_shards",
                    static_cast<std::int64_t>(shards.size()));
    if (summary.missing_jobs > 0)
      report.set_meta("missing_jobs",
                      static_cast<std::int64_t>(summary.missing_jobs));
    report.add_sweep(suite.spec.title, sweeps, 0.0);

    if (!report.write_file(outputs.json_path))
      throw CheckpointIoError("could not write JSON report to " +
                              outputs.json_path);
    if (outputs.verbose)
      std::fprintf(stderr, "JSON report written to %s\n",
                   outputs.json_path.c_str());
  }

  return summary;
}

}  // namespace flexnet
