// flexnet_run: execute a declarative scenario suite (see
// scenario/suite.hpp) through the parallel sweep runner.
//
//   flexnet_run SUITE.json [--jobs N] [--json PATH] [--checkpoint PATH]
//               [--shard i/N] [--counters PATH] [--trace-out PATH]
//               [--trace-packets] [key=value ...]
//   flexnet_run --list
//
// Exit codes (runner/exit_codes.hpp — the orchestrator's retry policy
// keys off them):
//   0  sweep completed, all outputs written
//   1  unclassified error (worth a retry)
//   2  permanent: usage, unknown flag/key, suite or config errors, a
//      checkpoint journal for a different grid — retrying repeats it
//   3  sweep completed and every aggregated row deadlocked (outputs are
//      written; a sharded run reports only its own rows, and foreign
//      slots aggregate as survivors, so sharded runs rarely exit 3)
//   4  I/O failure writing an output (journal, report, counters, trace)
//      — the sweep itself ran; a retry on healthy storage can resume
//
// Every figure panel is one suite file under examples/suites/. The base
// configuration is SimConfig{} (Table V on the 36-router Dragonfly(2,4,2));
// trailing key=value tokens override it after the suite's "base" block
// (the series overrides always win), so scale and windows are keys too:
// paper_scale=1 or df_p=4 df_a=8 df_h=4, warmup=, measure=. The seed count
// is the suite's "seeds" (default 1). Results are bit-identical for any
// --jobs count (default 1). --checkpoint journals every completed job and
// resumes an interrupted run; --shard i/N runs only the i-th of N disjoint
// job subsets (one process per shard, merged back by tools/flexnet_merge);
// --list prints every component in the scenario registries
// and exits. The journal is flushed once per finished job, so its growth
// is the run's progress: `flexnet_merge SUITE --json PATH JOURNAL...`
// reports it (meta.missing_jobs), once or under --watch.
//
// Observability (README "Observability"): --counters aggregates the
// deterministic telemetry counters over every job and writes the snapshot
// to PATH ("-" for stdout); --trace-out writes a Chrome-trace/Perfetto
// JSON of the run (suite + job + checkpoint-I/O spans, each job span
// carrying its step phase seconds; --trace-packets adds per-packet
// lifetime spans).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "runner/exit_codes.hpp"
#include "runner/json_report.hpp"
#include "runner/shard.hpp"
#include "runner/sweep_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/suite.hpp"
#include "sim/config.hpp"
#include "sim/experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace flexnet;

int usage(const char* argv0, std::FILE* out = stderr,
          int code = exit_code::kConfig) {
  std::fprintf(
      out,
      "usage: %s SUITE.json [--jobs N] [--json PATH] [--checkpoint PATH]\n"
      "       %*s [--shard i/N] [--counters PATH] [--trace-out PATH]\n"
      "       %*s [--trace-packets] [key=value ...]\n"
      "       %s --list\n"
      "\n"
      "Runs the scenario suite described by SUITE.json on the parallel\n"
      "sweep runner. Results are bit-identical for any --jobs count.\n"
      "  --jobs N          worker threads (default 1)\n"
      "  --json PATH       write a machine-readable sweep report to PATH\n"
      "  --checkpoint PATH journal completed jobs to PATH and resume from it\n"
      "  --shard i/N       run only the i-th of N disjoint job subsets\n"
      "                    (1-based); merge the journals with flexnet_merge\n"
      "  --counters PATH   aggregate telemetry counters over every job and\n"
      "                    write the snapshot to PATH ('-' for stdout)\n"
      "  --trace-out PATH  write a Chrome-trace/Perfetto JSON of the run\n"
      "  --trace-packets   add per-packet lifetime spans to --trace-out\n"
      "  --list            print every registered component and exit\n"
      "  key=value         config overrides applied after the suite's base\n"
      "exit codes: 0 ok; 1 transient error; 2 usage/suite/config errors\n"
      "(permanent); 3 completed with every row deadlocked; 4 output I/O\n"
      "failure (sweep ran; journal resumes on healthy storage)\n",
      argv0, static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "", argv0);
  return code;
}

void print_registries() {
  std::printf("registered components:\n");
  for (const RegistryListing& listing : list_registries()) {
    std::printf("  %s:\n", listing.kind.c_str());
    for (const ComponentInfo& info : listing.components)
      std::printf("    %-12s %s\n", info.name.c_str(),
                  info.description.c_str());
  }
}

void progress(const std::string& label, double load, const SimResult& r) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "  [%-28s] load=%.2f accepted=%.3f lat=%.0f%s\n",
                label.c_str(), load, r.accepted, r.avg_latency,
                r.deadlock ? " DEADLOCK" : "");
  std::fputs(line, stderr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite_path;
  std::string json_path;
  std::string checkpoint_path;
  std::string counters_path;
  std::string trace_path;
  bool trace_packets = false;
  ShardSpec shard;
  int jobs = 1;
  bool list = false;
  std::vector<const char*> overrides{argv[0]};

  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto flag_value = [&](const char* name, std::string* out) {
      return cli::flag_value(argc, argv, &i, name, out);
    };
    std::string value;
    if (tok == "--list") {
      list = true;
    } else if (tok == "--help" || tok == "-h") {
      // Asked-for help is not an error.
      return usage(argv[0], stdout, exit_code::kOk);
    } else if (flag_value("jobs", &value)) {
      jobs = cli::numeric_flag("jobs", value, 1);
    } else if (flag_value("json", &value)) {
      json_path = value;
    } else if (flag_value("checkpoint", &value)) {
      checkpoint_path = value;
    } else if (flag_value("shard", &value)) {
      std::string error;
      if (!parse_shard_spec(value, &shard, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return exit_code::kConfig;
      }
    } else if (flag_value("counters", &value)) {
      counters_path = value;
    } else if (flag_value("trace-out", &value)) {
      trace_path = value;
    } else if (tok == "--trace-packets") {
      trace_packets = true;
    } else if (tok.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", tok.c_str());
      return usage(argv[0]);
    } else if (tok.find('=') != std::string::npos) {
      const std::string key = tok.substr(0, tok.find('='));
      if (cli::reject_bad_config_override(key, tok.substr(tok.find('=') + 1)))
        return exit_code::kConfig;
      overrides.push_back(argv[i]);
    } else if (suite_path.empty()) {
      suite_path = tok;
    } else {
      std::fprintf(stderr, "error: more than one suite file ('%s', '%s')\n",
                   suite_path.c_str(), tok.c_str());
      return usage(argv[0]);
    }
  }

  if (list) print_registries();
  if (suite_path.empty()) return list ? exit_code::kOk : usage(argv[0]);
  if (trace_packets && trace_path.empty()) {
    log_warn("--trace-packets has no effect without --trace-out");
    trace_packets = false;
  }

  try {
    // The same SimConfig{} + suite + CLI-override grid flexnet_merge
    // rebuilds to validate and aggregate shard journals.
    const Options cli = Options::parse(static_cast<int>(overrides.size()),
                                       overrides.data());
    const MaterializedSuite suite = materialize_for_run(suite_path, &cli);
    const SuiteSpec& spec = suite.spec;
    const std::vector<ExperimentSeries>& grid = suite.grid;
    const int seeds = suite.seeds;

    std::fprintf(stderr, "%s: %zu series x %zu loads x %d seeds on %d "
                 "worker(s)\n",
                 spec.title.c_str(), grid.size(), spec.loads.size(), seeds,
                 jobs);
    if (shard.sharded()) {
      const ShardPlan plan(grid.size() * spec.loads.size(), seeds, shard);
      std::fprintf(stderr,
                   "  shard %s: %zu of %zu jobs (rows below cover only this "
                   "shard; merge the journals with flexnet_merge)\n",
                   shard.to_string().c_str(), plan.job_count(),
                   plan.total_jobs());
      if (checkpoint_path.empty())
        log_warn("--shard without --checkpoint discards this shard's "
                 "results — nothing will be left to merge");
    }

    TraceWriter trace(trace_path);  // empty path: inert writer
    if (!trace_path.empty() && !trace.ok())
      return exit_code::kIo;  // warning logged
    TelemetryCounters counters;

    const auto t0 = std::chrono::steady_clock::now();
    SweepRunner runner(jobs);
    runner.set_checkpoint(checkpoint_path);
    runner.set_shard(shard);
    if (!trace_path.empty()) runner.set_trace(&trace, trace_packets);
    if (!counters_path.empty()) runner.set_telemetry(&counters);
    std::vector<SweepResult> sweeps;
    {
      // The whole sweep (this process's shard of it) is one top-level span.
      TraceWriter::Span suite_span;
      if (!trace_path.empty()) {
        trace.process_name(0, "flexnet_run");
        const std::string name =
            shard.sharded() ? spec.title + " shard " + shard.to_string()
                            : spec.title;
        suite_span = trace.span("suite", name, 0);
      }
      sweeps = runner.run(grid, spec.loads, seeds, progress);
    }
    const bool trace_written = trace.close();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::fprintf(stderr, "  [%s] %.2fs wall on %d worker(s)\n",
                 spec.title.c_str(), secs, jobs);

    print_sweep_table(spec.title, sweeps);
    print_throughput_summary(spec.title, sweeps);

    if (!counters_path.empty()) {
      const std::string snapshot = counters.render();
      if (counters_path == "-") {
        std::fwrite(snapshot.data(), 1, snapshot.size(), stdout);
      } else {
        std::FILE* f = std::fopen(counters_path.c_str(), "wb");
        bool ok = f != nullptr &&
                  std::fwrite(snapshot.data(), 1, snapshot.size(), f) ==
                      snapshot.size();
        if (f != nullptr && std::fclose(f) != 0) ok = false;
        if (!ok) {
          log_error("could not write telemetry counters to " + counters_path);
          return exit_code::kIo;
        }
        std::fprintf(stderr, "telemetry counters written to %s\n",
                     counters_path.c_str());
      }
    }
    if (!trace_path.empty()) {
      if (!trace_written) {
        log_error("could not write trace to " + trace_path);
        return exit_code::kIo;
      }
      std::fprintf(stderr, "trace written to %s (open in ui.perfetto.dev)\n",
                   trace_path.c_str());
    }

    if (!json_path.empty()) {
      JsonReport report;
      report.set_meta("suite", suite_path);
      report.set_meta("title", spec.title);
      if (!spec.description.empty())
        report.set_meta("description", spec.description);
      report.set_meta("config", grid.front().config.summary());
      report.set_meta("seeds", static_cast<std::int64_t>(seeds));
      report.set_meta("jobs", static_cast<std::int64_t>(jobs));
      if (!checkpoint_path.empty())
        report.set_meta("checkpoint", checkpoint_path);
      if (shard.sharded()) report.set_meta("shard", shard.to_string());
      report.add_sweep(spec.title, sweeps, secs);
      if (!report.write_file(json_path)) {
        std::fprintf(stderr, "error: could not write JSON report to %s\n",
                     json_path.c_str());
        return exit_code::kIo;
      }
      std::fprintf(stderr, "JSON report written to %s\n", json_path.c_str());
    }

    // Deadlock-only exit: every output above is already written (the rows
    // are real results — all-deadlocked is a property of the config, not
    // a failure of the run), but an orchestrator or script sweeping a
    // parameter space wants the distinction without parsing tables.
    std::size_t rows_seen = 0;
    bool all_deadlocked = true;
    for (const SweepResult& sweep : sweeps)
      for (const SweepRow& row : sweep.rows) {
        ++rows_seen;
        all_deadlocked = all_deadlocked && row.result.deadlock;
      }
    if (rows_seen > 0 && all_deadlocked) {
      std::fprintf(stderr,
                   "note: every aggregated row deadlocked — exiting %d "
                   "(results above are written and mergeable)\n",
                   exit_code::kDeadlockOnly);
      return exit_code::kDeadlockOnly;
    }
  } catch (const std::exception& e) {
    return cli::error_exit(e);
  }
  return exit_code::kOk;
}
