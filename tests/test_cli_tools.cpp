// CLI-level contracts of the tool binaries (spawned from the build dir,
// FLEXNET_BIN_DIR): flexnet_run's exit-code taxonomy (2 permanent, 3
// deadlock-only, 4 output I/O — the contract the orchestrator's retry
// policy keys off), flexnet_merge's --out safety and --watch mode
// (honest partial reports, monotonically shrinking missing_jobs, final
// tick byte-identical to a one-shot merge), flexnet_orchestrate's
// --emit-commands and fault-injected supervision, the job spans of
// flexnet_run --trace-out, and flexnet_lint's default-root and usage
// contract (the rule corpus itself is drilled in tests/test_lint.cpp).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "runner/json_parser.hpp"

namespace flexnet {
namespace {

std::string bin(const std::string& name) {
  return std::string(FLEXNET_BIN_DIR) + "/" + name;
}

std::string shipped_suite(const std::string& filename) {
  return std::string(FLEXNET_SUITE_DIR) + "/" + filename;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CmdResult run_cmd(const std::string& cmd) {
  CmdResult result;
  std::FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// ---------------------------------------------------------------------------
// flexnet_run --shard validation.

TEST(FlexnetRunCli, MalformedShardSpecExitsNonZeroWithClearMessage) {
  for (const char* bad : {"0/3", "4/3", "x/3", "3/", "1.5/3", "3/0"}) {
    const CmdResult r = run_cmd(bin("flexnet_run") + " " +
                                shipped_suite("smoke_tiny.json") +
                                " --shard " + bad);
    EXPECT_EQ(r.exit_code, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("invalid shard spec"), std::string::npos)
        << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("expected i/N"), std::string::npos)
        << bad << "\n" << r.output;
  }
}

// Numeric flags parse the whole value or exit 2 naming the flag: a
// misread "--jobs abc" or "--jobs 0" must not silently run one worker.
TEST(FlexnetRunCli, NumericFlagsAreParsedStrictly) {
  for (const char* bad : {"abc", "0", "2x", "-1", "1.5", ""}) {
    const CmdResult r = run_cmd(bin("flexnet_run") + " " +
                                shipped_suite("smoke_tiny.json") +
                                " --jobs '" + bad + "' warmup=50 measure=100");
    EXPECT_EQ(r.exit_code, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("--jobs takes a whole number >= 1"),
              std::string::npos)
        << bad << "\n" << r.output;
  }
}

// --jobs/--json/--checkpoint/--shard/--heartbeat are the only spellings:
// their key=value forms are unknown config keys, not runner flags.
TEST(FlexnetRunCli, RunnerFlagsHaveNoKeyValueSpelling) {
  for (const char* alias : {"jobs=2", "json=r.json", "checkpoint=c.journal",
                            "shard=1/3", "heartbeat=h.hb"}) {
    const CmdResult r = run_cmd(bin("flexnet_run") + " " +
                                shipped_suite("smoke_tiny.json") + " " +
                                alias + " warmup=50 measure=100");
    EXPECT_EQ(r.exit_code, 2) << alias << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown config key"), std::string::npos)
        << alias << "\n" << r.output;
  }
}

// A config no network can run is a permanent error found while the suite
// materializes: exit 2 naming the series and the reason, before any job
// runs, never an abort mid-sweep.
TEST(FlexnetRunCli, ConfigsNoNetworkCanRunExitTwoBeforeAnyJob) {
  struct Bad {
    const char* overrides;
    const char* fragment;
  };
  const Bad bad[] = {
      {"routing=val", "baseline VC management cannot support this routing"},
      {"reactive=1", "request-reply arrangements require reactive traffic"},
      {"buffer_org=damq damq_private_fraction=nan",
       "damq_private_fraction in [0, 1]"},
      {"traffic=bursty burst_length=nan", "burst_length >= 1"},
  };
  for (const Bad& b : bad) {
    const CmdResult r = run_cmd(bin("flexnet_run") + " " +
                                shipped_suite("smoke_tiny.json") + " " +
                                b.overrides + " warmup=50 measure=100");
    EXPECT_EQ(r.exit_code, 2) << b.overrides << "\n" << r.output;
    EXPECT_NE(r.output.find("series '"), std::string::npos)
        << b.overrides << "\n" << r.output;
    EXPECT_NE(r.output.find(b.fragment), std::string::npos)
        << b.overrides << "\n" << r.output;
  }
}

TEST(FlexnetRunCli, ValidShardRunsItsSubsetAndWarnsWithoutCheckpoint) {
  // Shard 1/12 of the 12-job smoke grid is a single tiny job — fast, and
  // enough to pin the happy path plus the lost-results warning.
  const CmdResult r = run_cmd(bin("flexnet_run") + " " +
                              shipped_suite("smoke_tiny.json") +
                              " --shard 1/12 warmup=50 measure=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("shard 1/12: 1 of 12 jobs"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("without --checkpoint"), std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// flexnet_run exit codes: the orchestrator's retry policy depends on 2
// meaning "permanent — do not retry" and 3/4 meaning what they claim.

TEST(FlexnetRunCli, SuiteConfigAndStaleCheckpointErrorsExit2) {
  // A missing suite file.
  CmdResult r = run_cmd(bin("flexnet_run") + " " +
                        temp_path("no_such_suite.json"));
  EXPECT_EQ(r.exit_code, 2) << r.output;

  // An unknown config key (the typo guard).
  r = run_cmd(bin("flexnet_run") + " " + shipped_suite("smoke_tiny.json") +
              " warmupp=50");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown config key"), std::string::npos)
      << r.output;

  // A value that does not parse as its key's kind.
  r = run_cmd(bin("flexnet_run") + " " + shipped_suite("smoke_tiny.json") +
              " speedup=1.5");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("'speedup'"), std::string::npos) << r.output;

  // A checkpoint journal for a different grid: rerunning repeats the
  // mismatch forever, so it must be permanent, not retried.
  const std::string ck = temp_path("cli_stale_ck.journal");
  std::remove(ck.c_str());
  r = run_cmd(bin("flexnet_run") + " " + shipped_suite("smoke_tiny.json") +
              " --shard 1/12 --checkpoint " + ck +
              " warmup=50 measure=100");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = run_cmd(bin("flexnet_run") + " " + shipped_suite("smoke_tiny.json") +
              " --shard 1/12 --checkpoint " + ck +
              " warmup=50 measure=200");
  EXPECT_EQ(r.exit_code, 2) << "a changed grid must exit 2\n" << r.output;
  std::remove(ck.c_str());
  std::remove((ck + ".hb").c_str());
}

TEST(FlexnetRunCli, OutputIoFailuresExit4) {
  const std::string bad_dir = temp_path("cli_no_such_dir/");
  // --json into a missing directory: the sweep runs, the write fails.
  CmdResult r = run_cmd(bin("flexnet_run") + " " +
                        shipped_suite("smoke_tiny.json") +
                        " --shard 1/12 warmup=50 measure=100 --json " +
                        bad_dir + "x.json");
  EXPECT_EQ(r.exit_code, 4) << r.output;

  // --checkpoint into a missing directory: the journal cannot open.
  r = run_cmd(bin("flexnet_run") + " " + shipped_suite("smoke_tiny.json") +
              " --shard 1/12 warmup=50 measure=100 --checkpoint " +
              bad_dir + "x.journal");
  EXPECT_EQ(r.exit_code, 4) << r.output;
}

TEST(FlexnetRunCli, TraceAndCountersWriteFailuresExit4) {
  // /dev/full opens fine and fails every write: the failure only shows on
  // a flush or the close, which must still exit 4 like any other output.
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string run = bin("flexnet_run") + " " +
                          shipped_suite("smoke_tiny.json") +
                          " warmup=50 measure=50 ";
  CmdResult r = run_cmd(run + "--trace-out /dev/full");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_EQ(r.output.find("trace written"), std::string::npos) << r.output;
  r = run_cmd(run + "--counters /dev/full");
  EXPECT_EQ(r.exit_code, 4) << r.output;
}

// Every job span of --trace-out carries the seconds of each Network::step
// phase, the job's grants and its state-gather path, and tracing (which
// turns counting on) leaves the report unchanged.
TEST(FlexnetRunCli, TracedJobSpansCarryStepPhases) {
  const std::string traced_json = temp_path("cli_traced.json");
  const std::string plain_json = temp_path("cli_untraced.json");
  const std::string trace = temp_path("cli_phases_trace.json");
  const std::string run = bin("flexnet_run") + " " +
                          shipped_suite("smoke_tiny.json") +
                          " --jobs 2 warmup=200 measure=400 --json ";
  CmdResult r = run_cmd(run + traced_json + " --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = run_cmd(run + plain_json);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::regex wall("\"wall_seconds\": [^,\n]*");
  EXPECT_EQ(std::regex_replace(read_file(traced_json), wall, ""),
            std::regex_replace(read_file(plain_json), wall, ""))
      << "tracing must not change the report";

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(read_file(trace), &doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int jobs = 0;
  for (const JsonValue& ev : events->array) {
    if (ev.find("cat") == nullptr || ev.find("cat")->string_or("") != "job")
      continue;
    ++jobs;
    const JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr) << json_serialize(ev);
    double phases_s = 0.0;
    for (const char* phase :
         {"deliver_data", "deliver_credits", "nodes", "allocate", "send"}) {
      const JsonValue* v = args->find(phase);
      ASSERT_NE(v, nullptr) << phase << " in " << json_serialize(ev);
      EXPECT_GE(v->number, 0.0) << phase;
      phases_s += v->number;
    }
    ASSERT_NE(args->find("grants"), nullptr) << json_serialize(ev);
    EXPECT_GT(args->find("grants")->number, 0.0);
    ASSERT_NE(args->find("state_gather"), nullptr) << json_serialize(ev);
    EXPECT_EQ(args->find("state_gather")->type, JsonValue::Type::Bool);
    // dur is rendered in microseconds at %.3f.
    EXPECT_LE(phases_s * 1e6, ev.find("dur")->number + 0.001)
        << json_serialize(ev);
  }
  EXPECT_EQ(jobs, 12) << "one span per (series, load) job of smoke_tiny";
  for (const std::string& path : {traced_json, plain_json, trace})
    std::remove(path.c_str());
}

TEST(FlexnetRunCli, DeadlockOnlyGridExits3WithOutputsWritten) {
  // The paper's deadlock lab as a suite: a DAMQ with no private
  // reservation at saturation deadlocks every seed. Exit 3 says so
  // without parsing tables — but the report is written and the rows are
  // real results.
  const std::string suite = temp_path("cli_deadlock_suite.json");
  const std::string json = temp_path("cli_deadlock.json");
  std::remove(json.c_str());
  write_file(suite, R"json({
    "title": "deadlock lab",
    "base": {"vcs": "2/1", "buffer_org": "damq",
             "damq_private_fraction": 0.0, "watchdog": 2000,
             "warmup": 200, "measure": 5000},
    "series": [{"label": "DAMQ 0% private", "overrides": {}}],
    "loads": [1.0],
    "seeds": 1
  })json");

  const CmdResult r =
      run_cmd(bin("flexnet_run") + " " + suite + " --json " + json);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("every aggregated row deadlocked"),
            std::string::npos)
      << r.output;
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(read_file(json), &doc, &error))
      << "the report must be written before exiting 3: " << error;
  std::remove(suite.c_str());
  std::remove(json.c_str());
}

// ---------------------------------------------------------------------------
// flexnet_merge --out safety.

TEST(FlexnetMergeCli, ExistingOutPathRefusedBeforeTouchingAnyFile) {
  // An existing --out could be a shard journal the user also listed as an
  // input; the refusal must come before any file is opened or repaired.
  const std::string out = temp_path("cli_merge_out.journal");
  const std::string precious = "some existing bytes, maybe a shard journal";
  write_file(out, precious);
  const CmdResult r = run_cmd(bin("flexnet_merge") + " " +
                              shipped_suite("smoke_tiny.json") + " --out " +
                              out + " no-such-shard.journal");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("already exists"), std::string::npos) << r.output;
  EXPECT_EQ(read_file(out), precious) << "--out must be left untouched";
  std::remove(out.c_str());
}

// ---------------------------------------------------------------------------
// flexnet_merge --watch: a dashboard can follow a sweep while it runs.
// Staged journal arrival stands in for concurrently-writing shards: the
// journals are append-only, so "shard 3 has not arrived yet" at tick 1
// and "all shards present" at tick 2 is exactly the mid-sweep state
// sequence, without background-process flakiness.

class MergeWatchCli : public ::testing::Test {
 protected:
  static constexpr const char* kFast = " warmup=50 measure=100";

  static void SetUpTestSuite() {
    for (int i = 1; i <= 3; ++i) {
      const std::string journal = shard_journal(i);
      std::remove(journal.c_str());
      const CmdResult r = run_cmd(
          bin("flexnet_run") + " " + shipped_suite("smoke_tiny.json") +
          " --shard " + std::to_string(i) + "/3 --jobs 2 --checkpoint " +
          journal + kFast);
      ASSERT_EQ(r.exit_code, 0) << r.output;
    }
  }

  static void TearDownTestSuite() {
    for (int i = 1; i <= 3; ++i) {
      std::remove(shard_journal(i).c_str());
      std::remove((shard_journal(i) + ".hb").c_str());
    }
  }

  static std::string shard_journal(int i) {
    return temp_path("cli_watch_" + std::to_string(i) + ".journal");
  }
};

TEST_F(MergeWatchCli, WatchRequiresJson) {
  const CmdResult r = run_cmd(
      bin("flexnet_merge") + " " + shipped_suite("smoke_tiny.json") +
      " --out " + temp_path("cli_watch_nojson.journal") + " --watch 1 " +
      shard_journal(1));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--watch"), std::string::npos) << r.output;
}

TEST_F(MergeWatchCli, HonestPartialTicksThenFinalByteIdenticalToOneShot) {
  const std::string once = temp_path("cli_watch_once.json");
  const std::string live = temp_path("cli_watch_live.json");
  const std::string missing = temp_path("cli_watch_missing.journal");
  std::remove(once.c_str());
  std::remove(live.c_str());
  std::remove(missing.c_str());
  const std::string inputs = shard_journal(1) + " " + shard_journal(2) +
                             " " + missing;

  // One-shot merge of the complete set: the byte-comparison baseline.
  CmdResult r = run_cmd(bin("flexnet_merge") + " " +
                        shipped_suite("smoke_tiny.json") + kFast +
                        " --json " + once + " " + shard_journal(1) + " " +
                        shard_journal(2) + " " + shard_journal(3));
  ASSERT_EQ(r.exit_code, 0) << r.output;

  // Tick 1: shard 3's journal has not arrived. The watch must publish a
  // parseable report whose meta.missing_jobs is honest (4 of 12 jobs
  // live in shard 3), then give up after the tick budget with exit 1.
  r = run_cmd(bin("flexnet_merge") + " " +
              shipped_suite("smoke_tiny.json") + kFast + " --json " + live +
              " --watch 0 --watch-ticks 1 " + inputs);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("watch tick 1: 8/12 jobs"), std::string::npos)
      << r.output;
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(read_file(live), &doc, &error)) << error;
  const JsonValue* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  const JsonValue* missing_jobs = meta->find("missing_jobs");
  ASSERT_NE(missing_jobs, nullptr)
      << "the partial report must say what it is missing";
  EXPECT_EQ(missing_jobs->number_or(0.0), 4.0);

  // Shard 3 "arrives" (the staged stand-in for its process finishing);
  // coverage can only grow, so missing_jobs shrinks 4 -> 0 and the watch
  // completes. The final published report must equal the one-shot merge
  // byte for byte.
  ASSERT_EQ(std::rename(shard_journal(3).c_str(), missing.c_str()), 0);
  r = run_cmd(bin("flexnet_merge") + " " +
              shipped_suite("smoke_tiny.json") + kFast + " --json " + live +
              " --watch 0 --watch-ticks 3 " + inputs);
  ASSERT_EQ(std::rename(missing.c_str(), shard_journal(3).c_str()), 0);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("watch tick 1: 12/12 jobs"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("complete"), std::string::npos) << r.output;
  EXPECT_EQ(read_file(live), read_file(once))
      << "the final watch tick must be byte-identical to a one-shot merge";

  std::remove(once.c_str());
  std::remove(live.c_str());
}

TEST(FlexnetMergeCli, NumericFlagsAreParsedStrictly) {
  // --watch-ticks 1 bounds the run should "abc" ever be read as 0.
  const std::string cmd = bin("flexnet_merge") + " " +
                          shipped_suite("smoke_tiny.json") + " --json " +
                          temp_path("cli_numeric.json") + " ";
  const std::string journal = " " + temp_path("cli_numeric_absent.journal");
  CmdResult r = run_cmd(cmd + "--watch abc --watch-ticks 1" + journal);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--watch takes a number >= 0, got 'abc'"),
            std::string::npos)
      << r.output;
  r = run_cmd(cmd + "--watch 0 --watch-ticks 2x" + journal);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--watch-ticks takes a whole number >= 0"),
            std::string::npos)
      << r.output;
  std::remove(temp_path("cli_numeric.json").c_str());
}

// ---------------------------------------------------------------------------
// flexnet_orchestrate: the CLI surface (the supervision loop itself is
// drilled in tests/test_orchestrator.cpp).

TEST(FlexnetOrchestrateCli, UsageErrorsExit2) {
  const std::string suite = shipped_suite("smoke_tiny.json");
  EXPECT_EQ(run_cmd(bin("flexnet_orchestrate")).exit_code, 2);
  EXPECT_EQ(run_cmd(bin("flexnet_orchestrate") + " " + suite).exit_code, 2)
      << "--shards is required";
  EXPECT_EQ(run_cmd(bin("flexnet_orchestrate") + " " + suite +
                    " --shards 2").exit_code, 2)
      << "--prefix is required";
  EXPECT_EQ(run_cmd(bin("flexnet_orchestrate") + " " + suite +
                    " --shards 2 --prefix x --bogus-flag").exit_code, 2);
  EXPECT_EQ(run_cmd(bin("flexnet_orchestrate") + " " + suite +
                    " --shards 2 --prefix x --fault-crash-after nope")
                .exit_code, 2);
  EXPECT_EQ(run_cmd(bin("flexnet_orchestrate") + " " + suite +
                    " --shards 2 --prefix x warmupp=1").exit_code, 2)
      << "the config-key typo guard must fire before any launch";
  EXPECT_EQ(run_cmd(bin("flexnet_orchestrate") + " " + suite +
                    " --shards 2 --prefix x reactive=maybe").exit_code, 2)
      << "a value that does not parse must fail before any launch";
}

TEST(FlexnetOrchestrateCli, NumericFlagsAreParsedStrictly) {
  // --emit-commands: even a misread flag launches nothing.
  const std::string cmd = bin("flexnet_orchestrate") + " " +
                          shipped_suite("smoke_tiny.json") +
                          " --prefix x --emit-commands ";
  const struct {
    const char* args;
    const char* message;
  } rows[] = {
      {"--shards 2x", "--shards takes a whole number >= 1, got '2x'"},
      {"--shards 2 --jobs abc", "--jobs takes a whole number >= 1"},
      {"--shards 2 --jobs 0", "--jobs takes a whole number >= 1"},
      {"--shards 2 --retries abc", "--retries takes a whole number >= 0"},
      {"--shards 2 --backoff 1s", "--backoff takes a number >= 0"},
      {"--shards 2 --stale-timeout abc", "--stale-timeout takes a number"},
      {"--shards 2 --poll x", "--poll takes a number >= 0"},
      {"--shards 2 --fault-crash-after 1:2x",
       "--fault-crash-after takes a whole number >= 1, got '2x'"},
  };
  for (const auto& row : rows) {
    const CmdResult r = run_cmd(cmd + row.args);
    EXPECT_EQ(r.exit_code, 2) << row.args << "\n" << r.output;
    EXPECT_NE(r.output.find(row.message), std::string::npos)
        << row.args << "\n" << r.output;
  }
}

TEST(FlexnetOrchestrateCli, EmitCommandsPrintsDispatchableShardLines) {
  const CmdResult r = run_cmd(
      bin("flexnet_orchestrate") + " " + shipped_suite("smoke_tiny.json") +
      " --shards 3 --prefix " + temp_path("cli_emit") +
      " --jobs 2 --emit-commands warmup=50");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (int i = 1; i <= 3; ++i) {
    const std::string journal =
        temp_path("cli_emit") + "-" + std::to_string(i) + ".journal";
    EXPECT_NE(r.output.find("--shard " + std::to_string(i) + "/3"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("--checkpoint " + journal), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("--heartbeat " + journal + ".hb"),
              std::string::npos)
        << r.output;
  }
  EXPECT_NE(r.output.find("warmup=50"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find(".journal.log"), std::string::npos)
      << "emit mode must not create or mention local log sidecars";
}

TEST(FlexnetOrchestrateCli, FaultInjectedSweepRecoversAndMerges) {
  // The acceptance drill at CLI level: kill shard 1 after its first
  // completed job, watch the supervision restart it, and require the
  // merged report to appear with full coverage.
  const std::string prefix = temp_path("cli_orc");
  const std::string json = temp_path("cli_orc.json");
  for (int i = 1; i <= 2; ++i) {
    std::remove((prefix + "-" + std::to_string(i) + ".journal").c_str());
    std::remove((prefix + "-" + std::to_string(i) + ".journal.hb").c_str());
    std::remove((prefix + "-" + std::to_string(i) + ".journal.log").c_str());
  }
  std::remove(json.c_str());

  const CmdResult r = run_cmd(
      bin("flexnet_orchestrate") + " " + shipped_suite("smoke_tiny.json") +
      " --shards 2 --prefix " + prefix + " --json " + json +
      " --jobs 2 --fault-crash-after 1:1 --backoff 0.05 --poll 0.02" +
      " warmup=50 measure=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("died (signal 9"), std::string::npos)
      << "the injected SIGKILL must be observed\n" << r.output;
  EXPECT_NE(r.output.find("launched (attempt 2/"), std::string::npos)
      << "the victim must be restarted\n" << r.output;

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(read_file(json), &doc, &error)) << error;
  const JsonValue* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  const JsonValue* merged_shards = meta->find("merged_shards");
  ASSERT_NE(merged_shards, nullptr);
  EXPECT_EQ(merged_shards->number_or(0.0), 2.0);
  EXPECT_EQ(meta->find("missing_jobs"), nullptr)
      << "the merged report must have full coverage";

  for (int i = 1; i <= 2; ++i) {
    std::remove((prefix + "-" + std::to_string(i) + ".journal").c_str());
    std::remove((prefix + "-" + std::to_string(i) + ".journal.hb").c_str());
    std::remove((prefix + "-" + std::to_string(i) + ".journal.log").c_str());
  }
  std::remove(json.c_str());
}

// ---------------------------------------------------------------------------
// flexnet_lint: the CLI surface. With no --root it checks the checkout it
// was built from (FLEXNET_SOURCE_DIR), which must hold every invariant —
// this is the same gate CI's static-analysis job runs.

TEST(FlexnetLintCli, DefaultRootIsTheShippedTreeAndItPasses) {
  const CmdResult r = run_cmd(bin("flexnet_lint"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
}

TEST(FlexnetLintCli, UsageErrorsExit2) {
  EXPECT_EQ(run_cmd(bin("flexnet_lint") + " --rules").exit_code, 2);
  EXPECT_EQ(run_cmd(bin("flexnet_lint") + " --rules L7").exit_code, 2);
  EXPECT_EQ(run_cmd(bin("flexnet_lint") + " --root").exit_code, 2);
  EXPECT_EQ(run_cmd(bin("flexnet_lint") + " stray-positional").exit_code, 2);
}

TEST(FlexnetLintCli, JsonReportIsWrittenAndParses) {
  const std::string report = temp_path("cli_lint.json");
  std::remove(report.c_str());
  const CmdResult r =
      run_cmd(bin("flexnet_lint") + " --quiet --json " + report);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(read_file(report), &doc, &error)) << error;
  EXPECT_EQ(doc.find("tool")->string_or(""), "flexnet_lint");
  EXPECT_GT(doc.find("files_scanned")->number_or(0.0), 0.0);
  std::remove(report.c_str());
}

}  // namespace
}  // namespace flexnet
