// Shard orchestrator: drives the N `flexnet_run --shard i/N` processes of
// a distributed sweep unattended — launch, liveness, restart — so a
// paper-scale grid survives node loss with one command
// (tools/flexnet_orchestrate).
//
// The design splits "what to run" from "how to run it":
//
//  - plan_shard_commands() builds the N shard command lines (suite +
//    --shard i/N + --checkpoint + overrides). They are plain argv
//    vectors, so `flexnet_orchestrate --emit-commands` can print them
//    for ssh/slurm dispatch instead of executing anything.
//  - Launcher is the pluggable execution backend. ForkExecLauncher (local
//    fork/exec, one child per shard) ships here; a cluster backend only
//    has to implement launch/poll/kill over its own job handles. Tests
//    subclass it to inject faults deterministically (crash-after-K-jobs
//    via the FLEXNET_FAULT_CRASH_AFTER_JOBS hook, SIGSTOP stalls).
//  - Orchestrator runs the supervision loop: poll each shard's process
//    state AND the size of its checkpoint journal (JournalWatch — one
//    stat per poll, no parsing; the journal grows by one flushed record
//    per finished job). A shard whose process died, or whose journal
//    stopped changing past the stale timeout (it gets SIGKILLed first),
//    is relaunched with the same --checkpoint so it resumes, up to a
//    per-shard restart budget with exponential backoff. Exit codes
//    (runner/exit_codes.hpp) separate permanent failures — exit 2,
//    config/suite/fingerprint problems that would repeat forever — from
//    transient ones worth the budget.
//
// The orchestrator deliberately does not parse journals or results; the
// merge that follows (runner/merge.hpp) re-validates everything against
// the grid fingerprint, so a lying shard cannot corrupt the report.
#pragma once

#include <string>
#include <vector>

namespace flexnet {

/// One shard's command line plus the paths the orchestrator watches.
struct ShardCommand {
  int shard_index = 0;  ///< 0-based
  int shard_count = 1;
  std::vector<std::string> argv;  ///< argv[0] = the flexnet_run binary
  std::vector<std::string> env;   ///< extra "KEY=VALUE" for the child
  std::string journal;  ///< --checkpoint path: the shard's output and
                        ///< the file its liveness is read from
};

/// Execution backend for shard processes. Handles are opaque longs
/// (ForkExecLauncher uses pids). Implementations must tolerate poll/kill
/// on an already-exited handle.
class Launcher {
 public:
  virtual ~Launcher() = default;

  /// Starts attempt `attempt` (1-based) of `cmd`. Returns a handle > 0,
  /// or -1 when the process could not be started (counts as a transient
  /// failure against the shard's budget).
  virtual long launch(const ShardCommand& cmd, int attempt) = 0;

  /// True when the process behind `handle` has exited; `*exit_code` then
  /// holds its decoded status: >= 0 for a normal exit, -signo for a
  /// signal death. False while it is still running.
  virtual bool poll(long handle, int* exit_code) = 0;

  /// Hard-kills the process (used for stale-journal restarts and for
  /// cleanup after a permanent failure elsewhere). The exit still arrives
  /// through poll().
  virtual void kill(long handle) = 0;
};

/// Local backend: fork + execv, one child per shard, stdout/stderr of
/// each child appended to `<journal>.log` so shard output does not
/// interleave with the orchestrator's own console.
class ForkExecLauncher : public Launcher {
 public:
  long launch(const ShardCommand& cmd, int attempt) override;
  bool poll(long handle, int* exit_code) override;
  void kill(long handle) override;
};

struct OrchestratorOptions {
  int max_restarts = 2;           ///< extra launches allowed per shard
  double backoff_initial_s = 0.5; ///< delay before the first relaunch
  double backoff_multiplier = 2.0;
  /// Journal silence (no change in the file's size) after which a
  /// still-running shard is presumed wedged, killed, and restarted. Must
  /// exceed the longest single job: the journal only grows when a job
  /// finishes.
  double stale_timeout_s = 60.0;
  double poll_interval_s = 0.2;
  bool quiet = false;             ///< suppress per-event stderr lines
};

struct ShardOutcome {
  int shard_index = 0;     ///< 0-based
  int attempts = 0;        ///< launches consumed (1 = no restart needed)
  int last_exit = 0;       ///< decoded exit of the final attempt
  int stale_kills = 0;     ///< restarts forced by a stale journal
  bool completed = false;  ///< final attempt exited 0 or 3 (deadlock-only)
  std::string failure;     ///< human-readable reason when !completed
};

struct OrchestratorReport {
  bool ok = false;                   ///< every shard completed
  bool deadlock_only = false;        ///< some shard exited 3
  std::vector<ShardOutcome> shards;  ///< one per shard, in shard order
  std::vector<std::string> journals; ///< the shard journal paths, in order
  std::string error;                 ///< first fatal reason when !ok
};

/// What to orchestrate: the sweep, how to shard it, and where the shard
/// journals live.
struct OrchestrateSpec {
  std::string run_binary;                 ///< path to flexnet_run
  std::string suite_path;
  std::vector<std::string> overrides;     ///< raw "key=value" tokens
  std::string journal_prefix;             ///< journals at PREFIX-<i>.journal
  int shards = 2;
  int jobs_per_shard = 1;
};

/// Builds the N shard command lines for `spec`: the i-th (1-based in the
/// --shard spelling) runs
///   run_binary suite --shard i/N --checkpoint PREFIX-i.journal
///     --jobs J overrides...
std::vector<ShardCommand> plan_shard_commands(const OrchestrateSpec& spec);

/// POSIX-shell quoting for rendering a ShardCommand as a copy-pastable
/// (ssh/slurm-wrappable) line.
std::string shell_quote(const std::string& token);
std::string render_command(const ShardCommand& cmd);

/// Liveness of one shard, read from its checkpoint journal: any change in
/// the file's size is an advance — an appended record, or a resume
/// truncating a torn tail. A file that never appears never advances, so a
/// shard that dies or wedges before its journal opens still goes stale.
/// Times are seconds on one monotonic clock, passed in by the caller.
class JournalWatch {
 public:
  explicit JournalWatch(std::string path) : path_(std::move(path)) {}

  /// Forgets the file's last size and restarts the stale clock at `now`;
  /// called at each launch of the shard.
  void restart(double now);

  /// Stats the file; a size other than the last one seen (a missing file
  /// counts as its own size) restarts the stale clock at `now`.
  void poll(double now);

  /// Seconds since the last advance or restart.
  double stale_age(double now) const { return now - last_advance_; }

 private:
  std::string path_;
  long long last_size_ = -1;  // -1: missing
  double last_advance_ = 0.0;
};

class Orchestrator {
 public:
  /// `launcher` must outlive run(); it is borrowed, not owned, so tests
  /// and cluster integrations can hold richer state in it.
  Orchestrator(std::vector<ShardCommand> commands, OrchestratorOptions opt,
               Launcher* launcher);

  /// Supervises every shard to completion or permanent failure. On the
  /// first permanent failure (exit 2, or a shard's restart budget
  /// exhausted) all still-running shards are killed and the report's
  /// `error` names the culprit — fail fast, leave resumable journals.
  /// Blocking; returns when every shard is settled.
  OrchestratorReport run();

 private:
  std::vector<ShardCommand> commands_;
  OrchestratorOptions opt_;
  Launcher* launcher_;
};

}  // namespace flexnet
