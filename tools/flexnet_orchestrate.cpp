// flexnet_orchestrate: run a whole sharded sweep with one command.
//
//   flexnet_orchestrate SUITE.json --shards N --prefix PATH
//                       [--json REPORT.json] [--out MERGED.journal]
//                       [--jobs N] [--retries N] [--backoff SECS]
//                       [--stale-timeout SECS] [--poll SECS]
//                       [--run-binary PATH] [--emit-commands] [--quiet]
//                       [key=value ...]
//
// Plans the N `flexnet_run SUITE --shard i/N --checkpoint PREFIX-i.journal`
// commands, launches them locally
// (fork/exec, one child per shard, each child's console appended to
// `<journal>.log`), and supervises: a shard that dies — crash, OOM kill,
// signal, I/O failure — is relaunched with the same --checkpoint so it
// resumes from its journal, with exponential backoff, up to --retries
// extra attempts; a shard whose journal does not change size for
// --stale-timeout seconds is presumed wedged (SIGSTOP, NFS hang,
// livelock), killed, and restarted the same way. Permanent failures
// (exit 2: config/suite/journal-mismatch errors that would repeat
// forever) abort the whole sweep immediately, leaving every journal
// resumable. When all shards complete, the shard journals are merged
// in-process through the same library as tools/flexnet_merge, so the
// --json report is byte-identical to a serial `flexnet_run SUITE --json`.
//
// --emit-commands prints the planned shard command lines (shell-quoted,
// one per line) instead of running anything — pipe them to ssh, sbatch,
// or a queue of your own, then `flexnet_merge --watch` the journals.
//
// Exit codes (runner/exit_codes.hpp): 0 sweep merged, 1 retry budget
// exhausted / merge failed, 2 usage or config errors (an existing --out,
// a suite that does not materialize, before any shard is launched, or a
// shard's permanent exit 2), 4 merge output I/O failure.
//
// Test hook: --fault-crash-after I:K injects
// FLEXNET_FAULT_CRASH_AFTER_JOBS=K (see runner/sweep_runner.cpp) into
// shard I's *first* attempt only — the shard SIGKILLs itself after its
// K-th completed job and must be restarted and resumed by the
// supervision loop. The fault-injection battery and CI drill the
// restart path with it; it is useless (and harmless) in real sweeps.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "runner/exit_codes.hpp"
#include "runner/merge.hpp"
#include "runner/orchestrator.hpp"
#include "scenario/suite.hpp"

namespace {

using namespace flexnet;

int usage(const char* argv0, std::FILE* out = stderr,
          int code = exit_code::kConfig) {
  std::fprintf(
      out,
      "usage: %s SUITE.json --shards N --prefix PATH\n"
      "       %*s [--json REPORT.json] [--out MERGED.journal] [--jobs N]\n"
      "       %*s [--retries N] [--backoff SECS] [--stale-timeout SECS]\n"
      "       %*s [--poll SECS] [--run-binary PATH] [--emit-commands]\n"
      "       %*s [--quiet] [key=value ...]\n"
      "\n"
      "Launches and supervises the N shard processes of a sweep, restarts\n"
      "dead or wedged shards with --checkpoint resume, then merges their\n"
      "journals into the standard report (byte-identical to a serial run).\n"
      "  --shards N          split the grid into N disjoint shards\n"
      "  --prefix PATH       shard journals at PATH-<i>.journal (console\n"
      "                      log PATH-<i>.journal.log next to each)\n"
      "  --json PATH         write the merged JSON sweep report to PATH\n"
      "  --out PATH          write the merged journal to PATH (fresh path)\n"
      "  --jobs N            worker threads per shard (default 1)\n"
      "  --retries N         extra launches allowed per shard (default 2)\n"
      "  --backoff SECS      delay before a shard's first relaunch,\n"
      "                      doubling per retry (default 0.5)\n"
      "  --stale-timeout S   kill+restart a shard whose journal has not\n"
      "                      changed for S seconds; must exceed the\n"
      "                      longest single job (default 60)\n"
      "  --poll SECS         supervision poll interval (default 0.2)\n"
      "  --run-binary PATH   the flexnet_run to launch (default: next to\n"
      "                      this binary)\n"
      "  --emit-commands     print the shard command lines and exit —\n"
      "                      dispatch them via ssh/slurm, merge afterwards\n"
      "  --quiet             suppress per-event supervision lines\n"
      "  key=value           config overrides, forwarded to every shard\n",
      argv0, static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "");
  return code;
}

/// The test-hook launcher: ForkExecLauncher that injects the
/// crash-after-K-jobs fault into one shard's first attempt.
class FaultInjectingLauncher : public ForkExecLauncher {
 public:
  FaultInjectingLauncher(int target_shard_index, long crash_after_jobs)
      : target_(target_shard_index), crash_after_(crash_after_jobs) {}

  long launch(const ShardCommand& cmd, int attempt) override {
    if (cmd.shard_index == target_ && attempt == 1) {
      ShardCommand faulty = cmd;
      faulty.env.push_back("FLEXNET_FAULT_CRASH_AFTER_JOBS=" +
                           std::to_string(crash_after_));
      return ForkExecLauncher::launch(faulty, attempt);
    }
    return ForkExecLauncher::launch(cmd, attempt);
  }

 private:
  int target_;
  long crash_after_;
};

/// `DIR/flexnet_run` for the DIR this binary was invoked from, so the
/// default works from any cwd for the usual `./build/flexnet_orchestrate`
/// spelling. A bare argv0 (PATH lookup) falls back to "flexnet_run" in
/// the cwd — pass --run-binary in that case.
std::string default_run_binary(const char* argv0) {
  const std::string self = argv0;
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "flexnet_run";
  return self.substr(0, slash + 1) + "flexnet_run";
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite_path;
  std::string prefix;
  std::string json_path;
  std::string out_path;
  std::string run_binary = default_run_binary(argv[0]);
  int shards = 0;
  int jobs = 1;
  bool emit_commands = false;
  int fault_shard = -1;  // 0-based; -1 = no injection
  long fault_after = 0;
  OrchestratorOptions opt;
  std::vector<std::string> override_tokens;
  std::vector<const char*> overrides{argv[0]};

  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto flag_value = [&](const char* name, std::string* out) {
      return cli::flag_value(argc, argv, &i, name, out);
    };
    std::string value;
    if (tok == "--help" || tok == "-h") {
      return usage(argv[0], stdout, exit_code::kOk);
    } else if (flag_value("shards", &value)) {
      shards = cli::numeric_flag("shards", value, 1);
    } else if (flag_value("prefix", &value)) {
      prefix = value;
    } else if (flag_value("json", &value)) {
      json_path = value;
    } else if (flag_value("out", &value)) {
      out_path = value;
    } else if (flag_value("jobs", &value)) {
      jobs = cli::numeric_flag("jobs", value, 1);
    } else if (flag_value("retries", &value)) {
      opt.max_restarts = cli::numeric_flag("retries", value, 0);
    } else if (flag_value("backoff", &value)) {
      opt.backoff_initial_s = cli::numeric_flag("backoff", value, 0.0);
    } else if (flag_value("stale-timeout", &value)) {
      opt.stale_timeout_s = cli::numeric_flag("stale-timeout", value, 0.0);
      if (opt.stale_timeout_s <= 0.0) {
        std::fprintf(stderr, "error: --stale-timeout must be > 0\n");
        return usage(argv[0]);
      }
    } else if (flag_value("poll", &value)) {
      opt.poll_interval_s = cli::numeric_flag("poll", value, 0.0);
    } else if (flag_value("run-binary", &value)) {
      run_binary = value;
    } else if (tok == "--emit-commands") {
      emit_commands = true;
    } else if (tok == "--quiet") {
      opt.quiet = true;
    } else if (flag_value("fault-crash-after", &value)) {
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr,
                     "error: --fault-crash-after wants I:K with 1-based "
                     "shard I and job count K >= 1, got '%s'\n",
                     value.c_str());
        return usage(argv[0]);
      }
      fault_shard = cli::numeric_flag("fault-crash-after",
                                      value.substr(0, colon), 1) - 1;
      fault_after = cli::numeric_flag("fault-crash-after",
                                      value.substr(colon + 1), 1L);
    } else if (tok.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", tok.c_str());
      return usage(argv[0]);
    } else if (tok.find('=') != std::string::npos) {
      const std::string key = tok.substr(0, tok.find('='));
      // Same guard as flexnet_run: an override the shards would reject
      // should die here, before N processes are launched to fail.
      if (cli::reject_bad_config_override(key, tok.substr(tok.find('=') + 1)))
        return exit_code::kConfig;
      override_tokens.push_back(tok);
      overrides.push_back(argv[i]);
    } else if (suite_path.empty()) {
      suite_path = tok;
    } else {
      std::fprintf(stderr, "error: more than one suite file ('%s', '%s')\n",
                   suite_path.c_str(), tok.c_str());
      return usage(argv[0]);
    }
  }

  if (suite_path.empty()) return usage(argv[0]);
  if (shards < 1) {
    std::fprintf(stderr, "error: --shards N (>= 1) is required\n");
    return usage(argv[0]);
  }
  if (prefix.empty()) {
    std::fprintf(stderr, "error: --prefix PATH is required (shard journals "
                         "land at PATH-<i>.journal)\n");
    return usage(argv[0]);
  }
  if (fault_shard >= shards) {
    std::fprintf(stderr, "error: --fault-crash-after names shard %d of %d\n",
                 fault_shard + 1, shards);
    return usage(argv[0]);
  }

  OrchestrateSpec spec;
  spec.run_binary = run_binary;
  spec.suite_path = suite_path;
  spec.overrides = override_tokens;
  spec.journal_prefix = prefix;
  spec.shards = shards;
  spec.jobs_per_shard = jobs;
  const std::vector<ShardCommand> commands = plan_shard_commands(spec);

  if (emit_commands) {
    for (const ShardCommand& cmd : commands)
      std::printf("%s\n", render_command(cmd).c_str());
    std::string merge_hint = "flexnet_merge " + shell_quote(suite_path);
    for (const std::string& tok : override_tokens)
      merge_hint += " " + shell_quote(tok);
    for (const ShardCommand& cmd : commands)
      merge_hint += " " + shell_quote(cmd.journal);
    std::fprintf(stderr,
                 "# dispatch the %d line(s) above, then merge (or --watch):\n"
                 "#   %s --json REPORT.json\n",
                 shards, merge_hint.c_str());
    return exit_code::kOk;
  }

  // Same freshness contract as flexnet_merge --out, checked before any
  // shard is launched: discovering a stale --out after a long sweep would
  // waste the whole run.
  if (const int code = cli::refuse_existing_out(out_path)) return code;

  try {
    // Materialize the grid once up front: a suite or override problem
    // should fail here, in this process, not N times in shard logs.
    const MaterializedSuite suite =
        cli::materialize_suite(suite_path, overrides);

    ForkExecLauncher local;
    FaultInjectingLauncher faulty(fault_shard, fault_after);
    Launcher* launcher =
        fault_shard >= 0 ? static_cast<Launcher*>(&faulty) : &local;

    if (!opt.quiet)
      std::fprintf(stderr,
                   "orchestrate: %s — %d shard(s) x %d worker(s), journals "
                   "at %s-<i>.journal\n",
                   suite.spec.title.c_str(), shards, jobs, prefix.c_str());

    Orchestrator orchestrator(commands, opt, launcher);
    const OrchestratorReport report = orchestrator.run();

    if (!report.ok) {
      std::fprintf(stderr, "orchestrate: sweep failed: %s\n",
                   report.error.c_str());
      for (const ShardOutcome& shard : report.shards)
        if (!shard.completed)
          std::fprintf(stderr, "  shard %d/%d: %s\n", shard.shard_index + 1,
                       shards, shard.failure.c_str());
      std::fprintf(stderr,
                   "  the shard journals are intact — fix the cause and "
                   "re-run this command to resume\n");
      for (const ShardOutcome& shard : report.shards)
        if (shard.completed == false &&
            exit_code::permanent_failure(shard.last_exit))
          return exit_code::kConfig;
      return exit_code::kFailure;
    }

    if (report.deadlock_only && !opt.quiet)
      std::fprintf(stderr,
                   "orchestrate: note: some shard(s) exited %d — every "
                   "point they simulated deadlocked\n",
                   exit_code::kDeadlockOnly);

    if (out_path.empty() && json_path.empty()) {
      std::fprintf(stderr,
                   "orchestrate: all %d shard(s) complete; no --out/--json "
                   "requested — merge later with flexnet_merge\n",
                   shards);
      return exit_code::kOk;
    }

    MergeOutputs outputs;
    outputs.out_journal = out_path;
    outputs.json_path = json_path;
    merge_suite_journals(suite, suite_path, report.journals, outputs);
  } catch (const std::exception& e) {
    return cli::error_exit(e);
  }
  return exit_code::kOk;
}
