// CLI-level contracts of the tool binaries (spawned from the build dir,
// FLEXNET_BIN_DIR): flexnet_run's exit-code taxonomy (2 permanent, 3
// deadlock-only, 4 output I/O — the contract the orchestrator's retry
// policy keys off), flexnet_merge's --out safety and --watch mode
// (honest partial reports, monotonically shrinking missing_jobs, final
// tick byte-identical to a one-shot merge), flexnet_orchestrate's
// --emit-commands and fault-injected supervision, and flexnet_run's
// observability outputs (trace spans, counters, journal progress).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

// --jobs/--json/--checkpoint/--shard are the only spellings: their
// key=value forms are unknown config keys, not runner flags.
TEST(FlexnetRunCli, RunnerFlagsHaveNoKeyValueSpelling) {
  for (const char* alias :
       {"jobs=2", "json=r.json", "checkpoint=c.journal", "shard=1/3"}) {
    const CmdResult r = run_cmd(bin("flexnet_run") + " " +
                                shipped_suite("smoke_tiny.json") + " " +
                                alias + " warmup=50 measure=100");
    EXPECT_EQ(r.exit_code, 2) << alias << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown config key"), std::string::npos)
        << alias << "\n" << r.output;
  }
}

// Usage errors exit 2 before any job runs. Progress has no flag of its
// own: it is the journal, read by flexnet_merge. --list is the one
// invocation without a suite that succeeds.
TEST(FlexnetRunCli, UsageErrorsExit2) {
  const std::string suite = shipped_suite("smoke_tiny.json");
  const std::string fast = suite + " warmup=50 measure=100 ";
  const struct {
    std::string args;
    const char* message;
  } rows[] = {
      {"", "usage:"},
      {fast + "--bogus-flag", "unknown flag '--bogus-flag'"},
      {fast + "--json", "--json requires a value"},
      {suite + " " + suite, "more than one suite file"},
      {fast + "--heartbeat x", "unknown flag '--heartbeat'"},
      {fast + "--progress x", "unknown flag '--progress'"},
      {"--progress x", "unknown flag '--progress'"},
  };
  for (const auto& row : rows) {
    const CmdResult r = run_cmd(bin("flexnet_run") + " " + row.args);
    EXPECT_EQ(r.exit_code, 2) << row.args << "\n" << r.output;
    EXPECT_NE(r.output.find(row.message), std::string::npos)
        << row.args << "\n" << r.output;
  }
  const CmdResult list = run_cmd(bin("flexnet_run") + " --list");
  EXPECT_EQ(list.exit_code, 0) << list.output;
  EXPECT_NE(list.output.find("registered components:"), std::string::npos)
      << list.output;
  EXPECT_NE(list.output.find("flexvc"), std::string::npos) << list.output;
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
      {"df_p=63 df_a=2 df_h=1", "65 input ports"},
      {"injection_vcs=65", "injection_vcs must be <= 64"},
  };
  for (const Bad& b : bad) {
    for (const char* jobs : {"1", "2"}) {
      const CmdResult r = run_cmd(bin("flexnet_run") + " " +
                                  shipped_suite("smoke_tiny.json") +
                                  " --jobs " + jobs + " " + b.overrides +
                                  " warmup=50 measure=100");
      EXPECT_EQ(r.exit_code, 2) << b.overrides << "\n" << r.output;
      EXPECT_NE(r.output.find("series '"), std::string::npos)
          << b.overrides << "\n" << r.output;
      EXPECT_NE(r.output.find(b.fragment), std::string::npos)
          << b.overrides << "\n" << r.output;
    }
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

TEST(FlexnetRunCli, JournalThatCannotGrowExits4) {
  // A file-size limit (SIGXFSZ ignored, so the write fails with EFBIG)
  // cuts the journal mid-record after a few jobs. The records already
  // written stay valid, but the run must not pass for a success.
  const std::string journal = temp_path("cli_fsize.journal");
  std::remove(journal.c_str());
  const CmdResult r = run_cmd(
      "sh -c 'trap \"\" XFSZ; ulimit -f 1; exec " + bin("flexnet_run") +
      " " + shipped_suite("smoke_tiny.json") +
      " warmup=100 measure=100 --checkpoint " + journal + "'");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("lost records to an I/O failure"),
            std::string::npos)
      << r.output;
  std::remove(journal.c_str());
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
// turns counting on) leaves the report unchanged. The traced run also
// journals, records packet spans and writes counters, so one run checks
// every observability output together: suite, job, checkpoint and packet
// spans nest on their lanes, the counters snapshot has its header, and a
// merge of the journal reports every job done.
TEST(FlexnetRunCli, TracedJobSpansCarryStepPhases) {
  const std::string traced_json = temp_path("cli_traced.json");
  const std::string plain_json = temp_path("cli_untraced.json");
  const std::string trace = temp_path("cli_phases_trace.json");
  const std::string journal = temp_path("cli_traced.journal");
  const std::string counters = temp_path("cli_traced_counters.txt");
  const std::string progress = temp_path("cli_traced_progress.json");
  std::remove(journal.c_str());
  const std::string fast = " warmup=200 measure=400";
  const std::string run = bin("flexnet_run") + " " +
                          shipped_suite("smoke_tiny.json") + " --jobs 2" +
                          fast + " --json ";
  CmdResult r = run_cmd(run + traced_json + " --trace-out " + trace +
                        " --trace-packets --checkpoint " + journal +
                        " --counters " + counters);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = run_cmd(run + plain_json);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::regex volatile_keys(
      "\"wall_seconds\": [^,\n]*|, \"checkpoint\": \"[^\"]*\"");
  EXPECT_EQ(std::regex_replace(read_file(traced_json), volatile_keys, ""),
            std::regex_replace(read_file(plain_json), volatile_keys, ""))
      << "tracing must not change the report";

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(read_file(trace), &doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int jobs = 0;
  std::set<std::string> categories;
  // Complete spans per (pid, tid) lane as (ts, dur).
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>>
      lanes;
  for (const JsonValue& ev : events->array) {
    if (ev.find("ph")->string_or("") != "X") continue;
    const std::string cat = ev.find("cat")->string_or("");
    const std::string where =
        cat + " span '" + ev.find("name")->string_or("") + "'";
    categories.insert(cat);
    lanes[{static_cast<int>(ev.find("pid")->number),
           static_cast<int>(ev.find("tid")->number)}]
        .emplace_back(ev.find("ts")->number, ev.find("dur")->number);
    if (cat != "job") continue;
    ++jobs;
    const JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr) << where;
    double phases_s = 0.0;
    for (const char* phase :
         {"deliver_data", "deliver_credits", "nodes", "allocate", "send"}) {
      const JsonValue* v = args->find(phase);
      ASSERT_NE(v, nullptr) << phase << " in " << where;
      EXPECT_GE(v->number, 0.0) << phase;
      phases_s += v->number;
    }
    ASSERT_NE(args->find("grants"), nullptr) << where;
    EXPECT_GT(args->find("grants")->number, 0.0);
    ASSERT_NE(args->find("state_gather"), nullptr) << where;
    EXPECT_EQ(args->find("state_gather")->type, JsonValue::Type::Bool);
    // dur is rendered in microseconds at %.3f.
    EXPECT_LE(phases_s * 1e6, ev.find("dur")->number + 0.001) << where;
  }
  EXPECT_EQ(jobs, 12) << "one span per (series, load) job of smoke_tiny";
  EXPECT_EQ(categories,
            (std::set<std::string>{"checkpoint", "job", "packet", "suite"}));
  // Spans on one lane nest or follow each other: jobs inside the suite,
  // journal syncs inside their job, a packet's pool slot reused only after
  // its release. Timestamps are rendered at %.3f.
  constexpr double kEps = 0.002;
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second > b.second;
    });
    std::vector<double> open_ends;
    for (const auto& [ts, dur] : spans) {
      while (!open_ends.empty() && open_ends.back() <= ts + kEps)
        open_ends.pop_back();
      if (!open_ends.empty()) {
        EXPECT_LE(ts + dur, open_ends.back() + kEps)
            << "span at " << ts << " on pid " << lane.first << " tid "
            << lane.second << " overlaps its neighbour without nesting";
      }
      open_ends.push_back(ts + dur);
    }
  }

  const std::string snapshot = read_file(counters);
  EXPECT_EQ(snapshot.rfind("telemetry v1 ", 0), 0u) << snapshot.substr(0, 80);
  EXPECT_NE(snapshot.find("\nnet.steps "), std::string::npos);

  // The journal is the run's progress record: merged, it covers every job.
  r = run_cmd(bin("flexnet_merge") + " " + shipped_suite("smoke_tiny.json") +
              fast + " --json " + progress + " " + journal);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  ASSERT_TRUE(json_parse(read_file(progress), &doc, &error)) << error;
  ASSERT_NE(doc.find("meta"), nullptr);
  EXPECT_EQ(doc.find("meta")->find("missing_jobs"), nullptr)
      << read_file(progress);

  for (const std::string& path :
       {traced_json, plain_json, trace, journal, counters, progress})
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
// One exception-to-exit-code mapping (tools/cli_util.hpp): a failure exits
// with the same documented code from every tool that can meet it, so the
// orchestrator never retries what a rerun repeats.

TEST(CliExitCodes, EachFailureExitsWithOneCodeFromEveryTool) {
  const std::string suite = shipped_suite("smoke_tiny.json");
  const std::string fast = " warmup=50 measure=100";
  const std::string journal = temp_path("cli_codes_shard.journal");
  const std::string existing = temp_path("cli_codes_existing.journal");
  const std::string report = temp_path("cli_codes_report.json");
  const std::string missing_suite = temp_path("no_such_suite.json");
  const std::string unwritable = temp_path("cli_codes_no_such_dir/x.json");
  const std::string prefix = temp_path("cli_codes_orch");
  const std::string precious = "some existing bytes";
  std::remove(journal.c_str());
  std::remove(report.c_str());
  write_file(existing, precious);
  const CmdResult shard =
      run_cmd(bin("flexnet_run") + " " + suite + " --shard 1/12" + fast +
              " --checkpoint " + journal);
  ASSERT_EQ(shard.exit_code, 0) << shard.output;

  struct Row {
    const char* failure;
    const char* tool;
    std::string args;
    int code;
  };
  const Row rows[] = {
      {"missing suite file", "flexnet_run", missing_suite, 2},
      {"missing suite file", "flexnet_merge",
       missing_suite + " --json " + report + " " + journal, 2},
      {"missing suite file", "flexnet_orchestrate",
       missing_suite + " --shards 2 --prefix " + prefix, 2},
      {"journal of another grid", "flexnet_merge",
       suite + " --json " + report + " warmup=50 measure=200 " + journal, 2},
      {"existing --out", "flexnet_merge",
       suite + " --out " + existing + " " + journal, 2},
      {"existing --out", "flexnet_orchestrate",
       suite + " --shards 2 --prefix " + prefix + " --out " + existing, 2},
      {"unwritable --json", "flexnet_run",
       suite + " --shard 1/12" + fast + " --json " + unwritable, 4},
      {"unwritable --json", "flexnet_merge",
       suite + fast + " --json " + unwritable + " " + journal, 4},
  };
  for (const Row& row : rows) {
    const CmdResult r = run_cmd(bin(row.tool) + " " + row.args);
    EXPECT_EQ(r.exit_code, row.code)
        << row.tool << ": " << row.failure << "\n" << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos)
        << row.tool << ": " << row.failure << "\n" << r.output;
  }
  EXPECT_EQ(read_file(existing), precious) << "--out must be left untouched";
  std::remove(journal.c_str());
  std::remove(existing.c_str());
  std::remove(report.c_str());
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
  EXPECT_EQ(r.exit_code, 2) << r.output;
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
    for (int i = 1; i <= 3; ++i) std::remove(shard_journal(i).c_str());
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

// A suite no network can run is permanent: refused with exit 2 before any
// shard is launched, so no retry budget is spent on it.
TEST(FlexnetOrchestrateCli, ConfigNoNetworkCanRunExitsTwoWithoutRelaunch) {
  const std::string prefix = temp_path("cli_orc_wide");
  const CmdResult r = run_cmd(
      bin("flexnet_orchestrate") + " " + shipped_suite("smoke_tiny.json") +
      " --shards 2 --jobs 2 --prefix " + prefix +
      " --backoff 0.05 --poll 0.02 df_p=63 df_a=2 df_h=1 warmup=50" +
      " measure=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("65 input ports"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("attempt 2/"), std::string::npos)
      << "a permanent error must not be retried\n" << r.output;
  for (int i = 1; i <= 2; ++i) {
    std::remove((prefix + "-" + std::to_string(i) + ".journal").c_str());
    std::remove((prefix + "-" + std::to_string(i) + ".journal.log").c_str());
  }
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
    std::remove((prefix + "-" + std::to_string(i) + ".journal.log").c_str());
  }
  std::remove(json.c_str());
}

}  // namespace
}  // namespace flexnet
