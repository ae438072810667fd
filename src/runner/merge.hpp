// The merge path behind `tools/flexnet_merge` and the orchestrator's
// end-of-sweep merge, as a library: validate M shard journals against a
// materialized suite, merge their records (runner/checkpoint.hpp), and
// emit the merged journal and/or the standard JSON sweep report through
// the runner's own seed-ordered aggregation — so every caller produces
// reports bit-identical to a single-process run by construction.
//
// Two callers with different tolerance needs share it:
//  - one-shot merges (flexnet_merge without --watch, the orchestrator's
//    final merge) treat an unreadable journal as an error;
//  - watch-mode ticks (flexnet_merge --watch) re-scan journals that are
//    still being written, so a missing / empty / torn-header input is
//    skipped for this tick (the shard just has not started or flushed
//    yet) — but a journal that parses and names a *different grid* is
//    still a hard error at every tick: it will never start matching.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "scenario/suite.hpp"

namespace flexnet {

struct MergeOutputs {
  /// Write the merged journal here; empty skips it. The path must not
  /// already exist (callers check before any input is touched).
  std::string out_journal;

  /// Write the standard JSON sweep report here; empty skips it.
  std::string json_path;

  /// Publish the report atomically: write to `json_path + ".tmp"`, then
  /// rename over json_path — a watcher (a dashboard polling it) never
  /// observes a half-written document. Watch-mode ticks require this.
  bool atomic_json = false;

  /// Skip unreadable / empty / not-yet-a-journal inputs instead of
  /// throwing (watch-mode ticks). Fingerprint mismatches always throw.
  bool tolerate_unreadable_inputs = false;

  /// Print the console sweep tables, the missing-jobs warning, and the
  /// output announcements (the one-shot flexnet_merge behavior). Watch
  /// ticks run quiet and print their own one-line status instead.
  bool verbose = true;
};

struct MergeSummary {
  std::size_t total_jobs = 0;       ///< points x seeds of the full grid
  std::size_t merged_records = 0;   ///< distinct (point, seed) records
  std::size_t missing_jobs = 0;     ///< total_jobs - merged_records
  std::size_t inputs_read = 0;      ///< journals that parsed this pass
  std::size_t inputs_skipped = 0;   ///< unreadable inputs tolerated away

  bool complete() const { return missing_jobs == 0; }
};

/// Merges `journal_paths` for the grid `suite` materializes and writes the
/// requested outputs. `suite_path` is echoed into the report's meta (it
/// must be the same spelling every shard ran with, so reports compare
/// bit-identically). Throws CheckpointError / CheckpointIoError /
/// SuiteError on the failures described above.
MergeSummary merge_suite_journals(const MaterializedSuite& suite,
                                  const std::string& suite_path,
                                  const std::vector<std::string>& journal_paths,
                                  const MergeOutputs& outputs);

}  // namespace flexnet
