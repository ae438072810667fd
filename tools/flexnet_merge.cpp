// flexnet_merge: merge the checkpoint journals of N sharded
// `flexnet_run SUITE.json --shard i/N --checkpoint ...` processes back
// into one journal and the standard JSON sweep report.
//
//   flexnet_merge SUITE.json [--out MERGED.journal] [--json REPORT.json]
//                 [--watch SECS [--watch-ticks N]]
//                 [key=value ...] SHARD.journal...
//
// The suite (plus any trailing key=value overrides, which must match the
// ones passed to the shard runs) is materialized exactly as flexnet_run
// materializes it, and every shard journal must carry that grid's
// fingerprint — a journal from a different suite, config, load grid, or
// seed count is rejected, as are two journals with conflicting results
// for the same (point, seed) job. Duplicate identical records dedupe; a
// torn trailing record in a shard journal (crashed shard) is ignored
// without modifying the input file. Aggregation is the same seed-ordered
// reduction the runner uses, so a merge of a complete shard set emits a
// report bit-identical to a single-process run of the suite.
//
// One-shot mode: missing jobs (a shard that never ran or crashed early)
// are a warning, not an error — the merged journal can seed a
// `--checkpoint` resume of just the missing shard, and a re-merge then
// completes the report.
//
// Watch mode (--watch SECS): the shard journals are re-scanned every SECS
// seconds while the shards are still running, and the --json report is
// re-published after every tick via an atomic rename — so a dashboard can
// render the grid while it fills in, always reading a complete document
// whose meta.missing_jobs is honest for that tick. Journals that do not
// exist or have no parseable header yet are skipped for the tick (the
// shard has not started); merged coverage only ever grows (journals are
// append-only), so missing_jobs shrinks monotonically. The watch ends
// when coverage is complete — the final tick's report is byte-identical
// to a one-shot merge — or after --watch-ticks re-scans (exit 1, report
// left at the last partial state). --out is written only on completion.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "runner/checkpoint.hpp"
#include "runner/exit_codes.hpp"
#include "runner/merge.hpp"
#include "scenario/suite.hpp"

namespace {

using namespace flexnet;

int usage(const char* argv0, std::FILE* out = stderr, int code = 2) {
  std::fprintf(
      out,
      "usage: %s SUITE.json [--out MERGED.journal] [--json REPORT.json]\n"
      "       %*s [--watch SECS [--watch-ticks N]]\n"
      "       %*s [key=value ...] SHARD.journal...\n"
      "\n"
      "Merges the --checkpoint journals of sharded flexnet_run processes\n"
      "(--shard i/N) into one journal and the standard sweep report.\n"
      "  --out PATH      write the merged journal to PATH\n"
      "  --json PATH     write the aggregated JSON sweep report to PATH\n"
      "  --watch SECS    keep re-scanning the journals every SECS seconds,\n"
      "                  republishing --json atomically after each tick\n"
      "                  (meta.missing_jobs reports the tick's coverage),\n"
      "                  until every job is merged; then write --out\n"
      "  --watch-ticks N give up after N re-scans (exit 1, last partial\n"
      "                  report left in place); 0 = watch until complete\n"
      "  key=value       config overrides — must match the shard runs'\n"
      "At least one of --out / --json is required; --watch requires --json.\n",
      argv0, static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite_path;
  std::string out_path;
  std::string json_path;
  double watch_interval = -1.0;
  long watch_ticks = 0;
  std::vector<std::string> journal_paths;
  std::vector<const char*> overrides{argv[0]};

  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto flag_value = [&](const char* name, std::string* out) {
      return cli::flag_value(argc, argv, &i, name, out);
    };
    std::string value;
    if (tok == "--help" || tok == "-h") {
      return usage(argv[0], stdout, 0);
    } else if (flag_value("out", &value)) {
      out_path = value;
    } else if (flag_value("json", &value)) {
      json_path = value;
    } else if (flag_value("watch", &value)) {
      watch_interval = cli::numeric_flag("watch", value, 0.0);
    } else if (flag_value("watch-ticks", &value)) {
      watch_ticks = cli::numeric_flag("watch-ticks", value, 0L);
    } else if (tok.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", tok.c_str());
      return usage(argv[0]);
    } else if (tok.find('=') != std::string::npos) {
      const std::string key = tok.substr(0, tok.find('='));
      // Same guard as flexnet_run: a bad override would rebuild a
      // different grid and reject every journal confusingly.
      if (cli::reject_bad_config_override(key, tok.substr(tok.find('=') + 1)))
        return 2;
      overrides.push_back(argv[i]);
    } else if (suite_path.empty()) {
      suite_path = tok;
    } else {
      journal_paths.push_back(tok);
    }
  }
  if (suite_path.empty() || journal_paths.empty()) return usage(argv[0]);
  if (out_path.empty() && json_path.empty()) {
    std::fprintf(stderr,
                 "error: nothing to do — pass --out and/or --json\n");
    return usage(argv[0]);
  }
  const bool watch = watch_interval >= 0.0;
  if (watch && json_path.empty()) {
    std::fprintf(stderr, "error: --watch republishes --json each tick — "
                         "pass --json\n");
    return usage(argv[0]);
  }

  // --out must be a fresh path, checked before any file is opened or
  // parsed: an existing file there could be a shard journal the user also
  // listed as an input, and even probing it through CheckpointJournal
  // would truncate its torn tail or append into it before any refusal.
  if (!out_path.empty() && std::ifstream(out_path).good()) {
    std::fprintf(stderr,
                 "error: --out %s already exists; refusing to overwrite or "
                 "append to it — pass a fresh path\n",
                 out_path.c_str());
    return 1;
  }

  try {
    const Options cli = Options::parse(static_cast<int>(overrides.size()),
                                       overrides.data());
    const MaterializedSuite suite = materialize_for_run(suite_path, &cli);

    if (!watch) {
      MergeOutputs outputs;
      outputs.out_journal = out_path;
      outputs.json_path = json_path;
      merge_suite_journals(suite, suite_path, journal_paths, outputs);
      return 0;
    }

    // Watch mode: quiet partial ticks with atomic publishes, then the
    // full verbose merge (tables, --out journal) once coverage completes.
    long tick = 0;
    for (;;) {
      ++tick;
      MergeOutputs outputs;
      outputs.json_path = json_path;
      outputs.atomic_json = true;
      outputs.tolerate_unreadable_inputs = true;
      outputs.verbose = false;
      const MergeSummary s =
          merge_suite_journals(suite, suite_path, journal_paths, outputs);
      std::fprintf(stderr,
                   "watch tick %ld: %zu/%zu jobs merged from %zu journal(s)"
                   "%s%s\n",
                   tick, s.merged_records, s.total_jobs, s.inputs_read,
                   s.inputs_skipped > 0 ? ", some not readable yet" : "",
                   s.complete() ? " — complete" : "");
      if (s.complete()) break;
      if (watch_ticks > 0 && tick >= watch_ticks) {
        std::fprintf(stderr,
                     "watch ended after %ld tick(s) with %zu job(s) still "
                     "missing; the last partial report is in %s\n",
                     tick, s.missing_jobs, json_path.c_str());
        return 1;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(watch_interval));
    }

    MergeOutputs final_outputs;
    final_outputs.out_journal = out_path;
    final_outputs.json_path = json_path;
    final_outputs.atomic_json = true;
    merge_suite_journals(suite, suite_path, journal_paths, final_outputs);
  } catch (const CheckpointIoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code::kIo;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
