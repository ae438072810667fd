// The shard orchestrator: command planning (argv spelling, quoting for
// --emit-commands), the supervision loop against a scripted in-memory
// launcher (transient-death retry, permanent-failure fail-fast, retry
// budget, launch failures, stale-journal kills — all sleep-free or
// near it), the journal watch with explicit times, and the
// fault-injection battery against real flexnet_run
// processes — SIGKILL a shard mid-run, SIGSTOP-stall it, corrupt its
// journal — asserting the orchestrated sweep's merged rows and canonical
// JSON report stay byte-identical to a serial run of the same suite.
#include <gtest/gtest.h>

#include <signal.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "runner/checkpoint.hpp"
#include "runner/exit_codes.hpp"
#include "runner/json_report.hpp"
#include "runner/merge.hpp"
#include "runner/orchestrator.hpp"
#include "runner/sweep_runner.hpp"
#include "scenario/suite.hpp"

#ifndef FLEXNET_BIN_DIR
#define FLEXNET_BIN_DIR "."
#endif

// Sanitizer instrumentation slows the child flexnet_run processes ~10x,
// so a healthy shard can miss a tight stale window between journal
// records (the journal grows only when a job finishes). Widen the
// staleness threshold accordingly; the SIGSTOPped shard is still killed
// at any threshold because its journal never changes at all.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FLEXNET_UNDER_SANITIZER 1
#endif
#endif
#if !defined(FLEXNET_UNDER_SANITIZER) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define FLEXNET_UNDER_SANITIZER 1
#endif
#ifdef FLEXNET_UNDER_SANITIZER
constexpr double kStaleTimeoutS = 10.0;
#else
constexpr double kStaleTimeoutS = 1.0;
#endif

namespace flexnet {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void remove_shard_files(const std::vector<ShardCommand>& commands) {
  for (const ShardCommand& cmd : commands) {
    std::remove(cmd.journal.c_str());
    std::remove((cmd.journal + ".log").c_str());
  }
}

// ---------------------------------------------------------------------------
// Command planning.

TEST(PlanShardCommands, BuildsTheOneBasedShardSpellings) {
  OrchestrateSpec spec;
  spec.run_binary = "/opt/bin/flexnet_run";
  spec.suite_path = "suite.json";
  spec.overrides = {"warmup=200", "measure=400"};
  spec.journal_prefix = "/tmp/sweep";
  spec.shards = 3;
  spec.jobs_per_shard = 4;

  const std::vector<ShardCommand> commands = plan_shard_commands(spec);
  ASSERT_EQ(commands.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const ShardCommand& cmd = commands[static_cast<std::size_t>(i)];
    EXPECT_EQ(cmd.shard_index, i);
    EXPECT_EQ(cmd.shard_count, 3);
    const std::string journal =
        "/tmp/sweep-" + std::to_string(i + 1) + ".journal";
    EXPECT_EQ(cmd.journal, journal);
    const std::vector<std::string> want = {
        "/opt/bin/flexnet_run", "suite.json",
        "--shard",     std::to_string(i + 1) + "/3",
        "--checkpoint", journal,
        "--jobs",      "4",
        "warmup=200",  "measure=400"};
    EXPECT_EQ(cmd.argv, want) << "shard " << i;
    EXPECT_TRUE(cmd.env.empty());
  }
}

TEST(RenderCommand, QuotesOnlyWhatTheShellNeeds) {
  EXPECT_EQ(shell_quote("plain-token_1.2/x"), "plain-token_1.2/x");
  EXPECT_EQ(shell_quote("has space"), "'has space'");
  EXPECT_EQ(shell_quote("don't"), "'don'\\''t'");
  EXPECT_EQ(shell_quote(""), "''");

  ShardCommand cmd;
  cmd.argv = {"/bin/run", "my suite.json", "--jobs", "2"};
  cmd.env = {"FLEXNET_FAULT_CRASH_AFTER_JOBS=3"};
  EXPECT_EQ(render_command(cmd),
            "FLEXNET_FAULT_CRASH_AFTER_JOBS=3 /bin/run 'my suite.json' "
            "--jobs 2");
}

// ---------------------------------------------------------------------------
// The supervision loop against a scripted launcher: no processes, no
// sleeps (zero backoff/poll), every branch deterministic.

/// In-memory launcher: each shard's attempts are scripted as decoded exit
/// codes. kNeverExits keeps the fake process "running" until kill().
class ScriptedLauncher : public Launcher {
 public:
  static constexpr int kNeverExits = 1000000;
  static constexpr int kLaunchFails = 1000001;

  explicit ScriptedLauncher(std::vector<std::vector<int>> script)
      : script_(std::move(script)) {}

  long launch(const ShardCommand& cmd, int attempt) override {
    const auto& attempts = script_[static_cast<std::size_t>(cmd.shard_index)];
    const int code = attempt <= static_cast<int>(attempts.size())
                         ? attempts[static_cast<std::size_t>(attempt - 1)]
                         : 0;
    if (code == kLaunchFails) return -1;
    procs_.push_back(Proc{code, /*reaped=*/false, /*killed=*/false});
    launches.push_back(cmd.shard_index);
    return static_cast<long>(procs_.size());  // 1-based handle
  }

  bool poll(long handle, int* exit_code) override {
    Proc& p = procs_[static_cast<std::size_t>(handle - 1)];
    if (p.exit == kNeverExits && !p.killed) return false;
    *exit_code = p.killed ? -SIGKILL : p.exit;
    p.reaped = true;
    return true;
  }

  void kill(long handle) override {
    procs_[static_cast<std::size_t>(handle - 1)].killed = true;
    ++kills;
  }

  std::vector<int> launches;  ///< shard index per launch, in order
  int kills = 0;

 private:
  struct Proc {
    int exit;
    bool reaped;
    bool killed;
  };
  std::vector<std::vector<int>> script_;
  std::vector<Proc> procs_;
};

std::vector<ShardCommand> fake_commands(int shards) {
  OrchestrateSpec spec;
  spec.run_binary = "/nonexistent/flexnet_run";
  spec.suite_path = "suite.json";
  spec.journal_prefix = temp_path("orc_fake");
  spec.shards = shards;
  return plan_shard_commands(spec);
}

OrchestratorOptions fast_options() {
  OrchestratorOptions opt;
  opt.backoff_initial_s = 0.0;
  opt.poll_interval_s = 0.0;
  opt.stale_timeout_s = 3600.0;  // staleness off unless a test wants it
  opt.quiet = true;
  return opt;
}

TEST(OrchestratorLoop, TransientDeathRetriesWithResumeAndCompletes) {
  // Shard 2 dies by signal once, then completes; the others are clean.
  ScriptedLauncher launcher({{0}, {-SIGKILL, 0}, {exit_code::kIo, 0}});
  Orchestrator orchestrator(fake_commands(3), fast_options(), &launcher);
  const OrchestratorReport report = orchestrator.run();

  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.error.empty());
  ASSERT_EQ(report.shards.size(), 3u);
  EXPECT_EQ(report.shards[0].attempts, 1);
  EXPECT_EQ(report.shards[1].attempts, 2);
  EXPECT_EQ(report.shards[2].attempts, 2) << "exit 4 (I/O) must retry";
  for (const ShardOutcome& shard : report.shards) {
    EXPECT_TRUE(shard.completed);
    EXPECT_EQ(shard.last_exit, 0);
  }
}

TEST(OrchestratorLoop, DeadlockOnlyExitCompletesAndIsFlagged) {
  ScriptedLauncher launcher({{exit_code::kDeadlockOnly}, {0}});
  Orchestrator orchestrator(fake_commands(2), fast_options(), &launcher);
  const OrchestratorReport report = orchestrator.run();
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.deadlock_only);
  EXPECT_EQ(report.shards[0].attempts, 1) << "exit 3 is completion, not "
                                             "failure";
}

TEST(OrchestratorLoop, PermanentFailureAbortsEverythingWithoutRetry) {
  // Shard 1 hits a config error; shard 2 would run forever. The
  // orchestrator must not retry exit 2, and must kill shard 2 rather
  // than hang.
  ScriptedLauncher launcher(
      {{exit_code::kConfig}, {ScriptedLauncher::kNeverExits}});
  Orchestrator orchestrator(fake_commands(2), fast_options(), &launcher);
  const OrchestratorReport report = orchestrator.run();

  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("shard 1/2"), std::string::npos)
      << report.error;
  EXPECT_EQ(report.shards[0].attempts, 1) << "permanent failures never retry";
  EXPECT_FALSE(report.shards[0].completed);
  EXPECT_FALSE(report.shards[1].completed);
  EXPECT_GE(launcher.kills, 1) << "the running shard must be killed";
}

TEST(OrchestratorLoop, RetryBudgetExhaustionIsFatal) {
  ScriptedLauncher launcher({{-SIGKILL, -SIGKILL, -SIGKILL, -SIGKILL}, {0}});
  OrchestratorOptions opt = fast_options();
  opt.max_restarts = 2;
  Orchestrator orchestrator(fake_commands(2), opt, &launcher);
  const OrchestratorReport report = orchestrator.run();

  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.shards[0].attempts, 3) << "1 launch + max_restarts";
  EXPECT_NE(report.shards[0].failure.find("retry budget exhausted"),
            std::string::npos)
      << report.shards[0].failure;
}

TEST(OrchestratorLoop, LaunchFailureConsumesTheBudgetAsTransient) {
  ScriptedLauncher launcher({{ScriptedLauncher::kLaunchFails, 0}});
  Orchestrator orchestrator(fake_commands(1), fast_options(), &launcher);
  const OrchestratorReport report = orchestrator.run();
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.shards[0].attempts, 2);
}

TEST(OrchestratorLoop, StaleJournalGetsTheShardKilledAndRestarted) {
  // Attempt 1 never exits and never writes its journal (the file does not
  // exist); the orchestrator must kill it on the stale timeout and
  // relaunch.
  ScriptedLauncher launcher({{ScriptedLauncher::kNeverExits, 0}});
  OrchestratorOptions opt = fast_options();
  opt.stale_timeout_s = 0.2;
  opt.poll_interval_s = 0.02;
  const std::vector<ShardCommand> commands = fake_commands(1);
  remove_shard_files(commands);
  Orchestrator orchestrator(commands, opt, &launcher);
  const OrchestratorReport report = orchestrator.run();

  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.shards[0].attempts, 2);
  EXPECT_EQ(report.shards[0].stale_kills, 1);
  EXPECT_EQ(launcher.kills, 1);
}

/// A shard that is alive and working: each poll appends one line to its
/// journal, and the process exits 0 after `polls` polls.
class AppendingLauncher : public Launcher {
 public:
  explicit AppendingLauncher(int polls) : polls_(polls) {}

  long launch(const ShardCommand& cmd, int attempt) override {
    (void)attempt;
    journal_ = cmd.journal;
    ++launches;
    return 1;
  }

  bool poll(long handle, int* exit_code) override {
    (void)handle;
    if (killed_ || polls_seen_ == polls_) {
      *exit_code = killed_ ? -SIGKILL : 0;
      return true;
    }
    ++polls_seen_;
    std::ofstream(journal_, std::ios::binary | std::ios::app)
        << "R " << polls_seen_ << "\n";
    return false;
  }

  void kill(long handle) override {
    (void)handle;
    killed_ = true;
  }

  int launches = 0;

 private:
  int polls_;
  int polls_seen_ = 0;
  bool killed_ = false;
  std::string journal_;
};

TEST(OrchestratorLoop, ShardWhoseJournalGrowsEveryPollIsNeverStale) {
  // The run lasts at least 30 polls of 0.02 s, longer than the 0.1 s
  // stale timeout; the timeout is longer than one poll, and every poll
  // finds the journal grown, so the shard is never killed.
  AppendingLauncher launcher(30);
  OrchestratorOptions opt = fast_options();
  opt.stale_timeout_s = 0.1;
  opt.poll_interval_s = 0.02;
  const std::vector<ShardCommand> commands = fake_commands(1);
  remove_shard_files(commands);
  Orchestrator orchestrator(commands, opt, &launcher);
  const OrchestratorReport report = orchestrator.run();

  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.shards[0].attempts, 1);
  EXPECT_EQ(report.shards[0].stale_kills, 0);
  EXPECT_EQ(launcher.launches, 1);
  remove_shard_files(commands);
}

// ---------------------------------------------------------------------------
// JournalWatch: liveness from the journal's size, with explicit times.

TEST(JournalWatch, StaleAgeGrowsUntilTheFileChanges) {
  const std::string path = temp_path("watch_grow.journal");
  write_file(path, "header\n");
  JournalWatch watch(path);
  watch.restart(100.0);
  watch.poll(100.0);
  EXPECT_DOUBLE_EQ(watch.stale_age(100.0), 0.0);

  watch.poll(130.0);  // nothing written since
  EXPECT_DOUBLE_EQ(watch.stale_age(130.0), 30.0);

  // A torn half-record is still bytes the shard appended.
  std::ofstream(path, std::ios::binary | std::ios::app) << "R 0 0 0x1p";
  watch.poll(140.0);
  EXPECT_DOUBLE_EQ(watch.stale_age(140.0), 0.0);
  std::remove(path.c_str());
}

TEST(JournalWatch, ResumeTruncationIsAnAdvance) {
  const std::string path = temp_path("watch_truncate.journal");
  write_file(path, "header\nR 0 0\nR 0 1\nR 0 2 torn");
  JournalWatch watch(path);
  watch.restart(0.0);
  watch.poll(0.0);

  // The resumed shard cuts the torn tail: the file is *smaller* now, and
  // the watch must read that as life, not silence.
  write_file(path, "header\nR 0 0\nR 0 1\n");
  watch.poll(40.0);
  EXPECT_DOUBLE_EQ(watch.stale_age(40.0), 0.0);
  std::remove(path.c_str());
}

TEST(JournalWatch, MissingFileGoesStaleFromRestart) {
  const std::string path = temp_path("watch_missing.journal");
  std::remove(path.c_str());
  JournalWatch watch(path);
  watch.restart(10.0);
  watch.poll(10.0);
  watch.poll(75.0);  // the shard died before opening its journal
  EXPECT_DOUBLE_EQ(watch.stale_age(75.0), 65.0)
      << "a shard that never writes its journal must still go stale";
}

TEST(JournalWatch, RestartForgetsHistoryAndRestartsTheClock) {
  const std::string path = temp_path("watch_restart.journal");
  write_file(path, "header\nR 0 0\n");
  JournalWatch watch(path);
  watch.restart(0.0);
  watch.poll(0.0);
  watch.poll(80.0);
  EXPECT_DOUBLE_EQ(watch.stale_age(80.0), 80.0);

  watch.restart(90.0);  // the orchestrator relaunched the shard
  EXPECT_DOUBLE_EQ(watch.stale_age(90.0), 0.0);
  // The same bytes are seen afresh after a restart: an advance relative
  // to the forgotten size, not silence carried over from the last attempt.
  watch.poll(95.0);
  EXPECT_DOUBLE_EQ(watch.stale_age(95.0), 0.0);
  watch.poll(100.0);
  EXPECT_DOUBLE_EQ(watch.stale_age(100.0), 5.0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The fault-injection battery: real flexnet_run shard processes under the
// real ForkExecLauncher, on the shipped smoke suite at test-speed cycle
// counts. Every scenario must end with merged rows — and the canonical
// JSON report built from them — byte-identical to the serial run.

class OrchestratorBattery : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fast_ = new Options();
    fast_->set("warmup", "200");
    fast_->set("measure", "400");
    suite_ = new MaterializedSuite(
        materialize_for_run(suite_path(), fast_));
    serial_ = new std::vector<SweepResult>(SweepRunner(1).run(
        suite_->grid, suite_->spec.loads, suite_->seeds));
  }

  static void TearDownTestSuite() {
    delete fast_;
    delete suite_;
    delete serial_;
  }

  static std::string suite_path() {
    return std::string(FLEXNET_SUITE_DIR) + "/smoke_tiny.json";
  }

  static OrchestrateSpec base_spec(const std::string& prefix) {
    OrchestrateSpec spec;
    spec.run_binary = std::string(FLEXNET_BIN_DIR) + "/flexnet_run";
    spec.suite_path = suite_path();
    spec.overrides = {"warmup=200", "measure=400"};
    spec.journal_prefix = temp_path(prefix);
    spec.shards = 3;
    spec.jobs_per_shard = 2;
    return spec;
  }

  static OrchestratorOptions battery_options() {
    OrchestratorOptions opt;
    opt.backoff_initial_s = 0.05;
    opt.poll_interval_s = 0.02;
    opt.stale_timeout_s = 3600.0;
    opt.quiet = true;
    return opt;
  }

  /// The byte-comparison surface: fixed meta, zero wall-clock — equality
  /// means every row value, label, and load is bit-identical.
  static std::string canonical_report(const std::vector<SweepResult>& rows) {
    JsonReport report;
    report.set_meta("suite", "smoke_tiny.json");
    report.set_meta("seeds", static_cast<std::int64_t>(suite_->seeds));
    report.add_sweep("battery", rows, 0.0);
    return report.to_json();
  }

  /// Merges the orchestrated journals through the production merge
  /// library into sweep rows (and optionally a merged journal).
  static std::vector<SweepResult> merge_rows(
      const std::vector<std::string>& journals,
      const std::string& out_journal = "") {
    MergeOutputs outputs;
    outputs.out_journal = out_journal;
    outputs.json_path = "";
    outputs.verbose = false;
    const MergeSummary summary =
        merge_suite_journals(*suite_, suite_path(), journals, outputs);
    EXPECT_TRUE(summary.complete())
        << summary.missing_jobs << " jobs missing after orchestration";

    std::vector<ShardJournal> shards;
    for (const std::string& path : journals)
      shards.push_back({path, read_journal(path)});
    const auto records = merge_journals(shards);
    const std::size_t num_points =
        suite_->grid.size() * suite_->spec.loads.size();
    std::vector<std::vector<SimResult>> per_seed(
        num_points,
        std::vector<SimResult>(static_cast<std::size_t>(suite_->seeds)));
    for (const auto& rec : records)
      per_seed[rec.point][static_cast<std::size_t>(rec.seed)] = rec.result;
    return SweepRunner::reduce_slots(suite_->grid, suite_->spec.loads,
                                     per_seed);
  }

  static Options* fast_;
  static MaterializedSuite* suite_;
  static std::vector<SweepResult>* serial_;
};

Options* OrchestratorBattery::fast_ = nullptr;
MaterializedSuite* OrchestratorBattery::suite_ = nullptr;
std::vector<SweepResult>* OrchestratorBattery::serial_ = nullptr;

/// ForkExecLauncher that injects the deterministic crash-after-K-jobs
/// fault (FLEXNET_FAULT_CRASH_AFTER_JOBS, runner/sweep_runner.cpp) into
/// chosen attempts of one shard — the test-battery hook the ISSUE asks
/// for: the shard SIGKILLs itself after its K-th completed job.
class FaultySimLauncher : public ForkExecLauncher {
 public:
  FaultySimLauncher(int target_shard, long crash_after_jobs,
                    int crash_attempts)
      : target_(target_shard),
        crash_after_(crash_after_jobs),
        crash_attempts_(crash_attempts) {}

  long launch(const ShardCommand& cmd, int attempt) override {
    if (cmd.shard_index == target_ && attempt <= crash_attempts_) {
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
  int crash_attempts_;
};

/// ForkExecLauncher that SIGSTOPs one shard's first attempt right after
/// launch: the process is alive but wedged — only the stale-journal path
/// can recover it.
class StallingLauncher : public ForkExecLauncher {
 public:
  explicit StallingLauncher(int target_shard) : target_(target_shard) {}

  long launch(const ShardCommand& cmd, int attempt) override {
    const long handle = ForkExecLauncher::launch(cmd, attempt);
    if (cmd.shard_index == target_ && attempt == 1 && handle > 0)
      ::kill(static_cast<pid_t>(handle), SIGSTOP);
    return handle;
  }

 private:
  int target_;
};

TEST_F(OrchestratorBattery, CleanThreeShardRunMergesIdenticalToSerial) {
  const OrchestrateSpec spec = base_spec("orc_clean");
  const std::vector<ShardCommand> commands = plan_shard_commands(spec);
  remove_shard_files(commands);

  ForkExecLauncher launcher;
  Orchestrator orchestrator(commands, battery_options(), &launcher);
  const OrchestratorReport report = orchestrator.run();

  ASSERT_TRUE(report.ok) << report.error;
  for (const ShardOutcome& shard : report.shards)
    EXPECT_EQ(shard.attempts, 1);
  EXPECT_EQ(canonical_report(merge_rows(report.journals)),
            canonical_report(*serial_))
      << "orchestrated merge must equal the serial run byte for byte";
  remove_shard_files(commands);
}

TEST_F(OrchestratorBattery, SigkilledShardRestartsResumesAndMergesIdentically) {
  // Shard 2's first attempt SIGKILLs itself after 2 completed jobs —
  // stdio buffers lost, journal possibly torn mid-record. The restart
  // must resume from the journal and the final merge must still be
  // byte-identical to serial; the merged journal must be byte-identical
  // to a clean run's merged journal too.
  const OrchestrateSpec spec = base_spec("orc_kill");
  const std::vector<ShardCommand> commands = plan_shard_commands(spec);
  remove_shard_files(commands);
  const std::string merged = temp_path("orc_kill_merged.journal");
  const std::string merged_clean = temp_path("orc_kill_clean.journal");
  std::remove(merged.c_str());
  std::remove(merged_clean.c_str());

  FaultySimLauncher launcher(/*target_shard=*/1, /*crash_after_jobs=*/2,
                             /*crash_attempts=*/1);
  Orchestrator orchestrator(commands, battery_options(), &launcher);
  const OrchestratorReport report = orchestrator.run();

  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.shards[1].attempts, 2) << "the victim must restart once";
  EXPECT_EQ(report.shards[0].attempts, 1);
  EXPECT_EQ(report.shards[2].attempts, 1);

  EXPECT_EQ(canonical_report(merge_rows(report.journals, merged)),
            canonical_report(*serial_))
      << "a killed-and-resumed shard must not change a single byte";

  // Byte-identical merged journal: rerun the same sweep clean and merge.
  const OrchestrateSpec clean_spec = base_spec("orc_kill2");
  const std::vector<ShardCommand> clean_commands =
      plan_shard_commands(clean_spec);
  remove_shard_files(clean_commands);
  ForkExecLauncher clean_launcher;
  Orchestrator clean_orc(clean_commands, battery_options(), &clean_launcher);
  const OrchestratorReport clean_report = clean_orc.run();
  ASSERT_TRUE(clean_report.ok) << clean_report.error;
  merge_rows(clean_report.journals, merged_clean);
  EXPECT_EQ(read_file(merged), read_file(merged_clean))
      << "merged journal after a crash must equal the clean run's bytes";

  remove_shard_files(commands);
  remove_shard_files(clean_commands);
  std::remove(merged.c_str());
  std::remove(merged_clean.c_str());
}

TEST_F(OrchestratorBattery, SigstoppedShardIsKilledForAStaleJournalAndRecovers) {
  // Shard 1 is SIGSTOPped at launch: alive by every process-level check,
  // but its journal never changes. The stale timeout must kill and
  // restart it, and the sweep must still merge byte-identical to serial.
  const OrchestrateSpec spec = base_spec("orc_stall");
  const std::vector<ShardCommand> commands = plan_shard_commands(spec);
  remove_shard_files(commands);

  StallingLauncher launcher(/*target_shard=*/0);
  OrchestratorOptions opt = battery_options();
  opt.stale_timeout_s = kStaleTimeoutS;
  Orchestrator orchestrator(commands, opt, &launcher);
  const OrchestratorReport report = orchestrator.run();

  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.shards[0].attempts, 2);
  EXPECT_EQ(report.shards[0].stale_kills, 1)
      << "the restart must be attributed to the stale journal";
  EXPECT_EQ(canonical_report(merge_rows(report.journals)),
            canonical_report(*serial_));
  remove_shard_files(commands);
}

TEST_F(OrchestratorBattery, CorruptJournalIsPermanentNotARetryStorm) {
  // Shard 1's journal is pre-corrupted garbage: flexnet_run exits 2
  // (permanent — rerunning repeats it forever). The orchestrator must
  // fail fast without burning the retry budget and kill the other
  // shards, leaving their journals resumable.
  const OrchestrateSpec spec = base_spec("orc_corrupt");
  const std::vector<ShardCommand> commands = plan_shard_commands(spec);
  remove_shard_files(commands);
  write_file(commands[0].journal, "this is not a checkpoint journal\n");

  ForkExecLauncher launcher;
  Orchestrator orchestrator(commands, battery_options(), &launcher);
  const OrchestratorReport report = orchestrator.run();

  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.shards[0].attempts, 1)
      << "exit 2 must not be retried: " << report.shards[0].failure;
  EXPECT_EQ(report.shards[0].last_exit, exit_code::kConfig);
  EXPECT_NE(report.error.find("shard 1/3"), std::string::npos)
      << report.error;
  remove_shard_files(commands);
}

}  // namespace
}  // namespace flexnet
