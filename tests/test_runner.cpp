// The parallel sweep-runner subsystem: the job loop (run_jobs),
// bit-identical multi-threaded sweeps, deterministic deadlock-aware seed
// aggregation, and the JSON report writer (round-tripped through the
// in-tree JSON parser).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/json_parser.hpp"
#include "runner/json_report.hpp"
#include "runner/sweep_runner.hpp"

namespace flexnet {
namespace {

// --- The job loop.

TEST(RunJobs, RunsEveryIndexOnceOnWorkersNumberedFromOne) {
  for (const int workers : {1, 2, 4}) {
    std::vector<std::atomic<int>> runs(100);
    std::atomic<int> bad_worker{0};
    run_jobs(runs.size(), workers, [&](std::size_t i, int worker) {
      runs[i].fetch_add(1);
      if (worker < 1 || worker > workers) bad_worker.store(worker);
    });
    for (std::size_t i = 0; i < runs.size(); ++i)
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << " at " << workers;
    EXPECT_EQ(bad_worker.load(), 0) << workers << " workers";
  }
  run_jobs(0, 4, [](std::size_t, int) { FAIL() << "no index to run"; });
  std::atomic<int> clamped{0};
  run_jobs(3, 0, [&](std::size_t, int) { clamped.fetch_add(1); });
  EXPECT_EQ(clamped.load(), 3) << "0 workers runs on one";
}

TEST(RunJobs, RunsJobsConcurrently) {
  // Two jobs that each block until the other has started can only finish
  // when two workers run them at the same time.
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  run_jobs(2, 2, [&](std::size_t, int) {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return started == 2; });
  });
  EXPECT_EQ(started, 2);
}

TEST(RunJobs, RethrowsTheLowestFailingIndexAndStopsClaiming) {
  for (const int workers : {1, 2, 4}) {
    std::atomic<int> ran{0};
    try {
      run_jobs(1000, workers, [&](std::size_t i, int) {
        ran.fetch_add(1);
        if (i == 3 || i == 5) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception at " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << workers << " workers";
    }
    // Each worker finishes at most the job it holds once one has failed.
    EXPECT_LT(ran.load(), 1000) << workers << " workers";
  }
}

// --- SweepRunner determinism.

bool identical(const SimResult& a, const SimResult& b) {
  return a.offered == b.offered && a.accepted == b.accepted &&
         a.avg_latency == b.avg_latency && a.avg_hops == b.avg_hops &&
         a.request_latency == b.request_latency &&
         a.reply_latency == b.reply_latency &&
         a.latency_p50 == b.latency_p50 && a.latency_p99 == b.latency_p99 &&
         a.latency_max == b.latency_max &&
         a.consumed_packets == b.consumed_packets &&
         a.deadlock == b.deadlock && a.cycles == b.cycles;
}

TEST(SweepRunner, MultiThreadedSweepBitIdenticalToSerial) {
  SimConfig base;
  base.warmup = 500;
  base.measure = 1000;
  std::vector<ExperimentSeries> series;
  series.push_back({"baseline", base});
  SimConfig flex = base;
  flex.policy = "flexvc";
  flex.vcs = "4/2";
  series.push_back({"flexvc", flex});
  const std::vector<double> loads = {0.1, 0.3, 0.5};

  const auto serial = SweepRunner(1).run(series, loads, /*seeds=*/2);
  const auto parallel = SweepRunner(4).run(series, loads, /*seeds=*/2);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s].label, parallel[s].label);
    ASSERT_EQ(serial[s].rows.size(), parallel[s].rows.size());
    for (std::size_t r = 0; r < serial[s].rows.size(); ++r) {
      EXPECT_EQ(serial[s].rows[r].load, parallel[s].rows[r].load);
      EXPECT_TRUE(
          identical(serial[s].rows[r].result, parallel[s].rows[r].result))
          << "series " << s << " row " << r;
    }
  }
  // The sweep actually simulated something.
  EXPECT_GT(serial[0].rows[0].result.consumed_packets, 0);
}

TEST(SweepRunner, RunPointMatchesAcrossWorkerCounts) {
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 1000;
  cfg.load = 0.4;
  const SimResult serial =
      SweepRunner(1).run({{"point", cfg}}, {cfg.load}, 3)[0].rows[0].result;
  const SimResult parallel =
      SweepRunner(4).run({{"point", cfg}}, {cfg.load}, 3)[0].rows[0].result;
  EXPECT_TRUE(identical(serial, parallel));
  EXPECT_NEAR(serial.accepted, 0.4, 0.03);
}

TEST(SweepRunner, ProgressReportsEveryPointOnce) {
  SimConfig cfg;
  cfg.warmup = 200;
  cfg.measure = 400;
  std::mutex mu;
  int calls = 0;
  const auto progress = [&](const std::string&, double, const SimResult&) {
    std::lock_guard<std::mutex> lock(mu);
    ++calls;
  };
  SweepRunner(3).run({{"a", cfg}, {"b", cfg}}, {0.1, 0.2}, 2, progress);
  EXPECT_EQ(calls, 4);  // 2 series x 2 loads, regardless of seeds
}

TEST(SweepRunner, AJobThatThrowsFailsTheRunAtEveryWorkerCount) {
  // A grid built directly skips the suite's validation, so the config
  // fails inside its job, when the network is built.
  SimConfig good;
  good.warmup = 50;
  good.measure = 100;
  SimConfig bad = good;
  bad.routing = "nope";
  for (const int jobs : {1, 2, 4}) {
    EXPECT_THROW(
        SweepRunner(jobs).run({{"good", good}, {"bad", bad}}, {0.1, 0.2}, 2),
        std::invalid_argument)
        << jobs << " workers";
  }
}

TEST(SweepRunner, JobConfigDerivesSeedAndLoad) {
  SimConfig base;
  base.seed = 7;
  const SimConfig job = SweepRunner::job_config(base, 0.65, 3);
  EXPECT_DOUBLE_EQ(job.load, 0.65);
  EXPECT_EQ(job.seed, 10u);
}

// --- Deadlock-aware aggregation (regression: a deadlocked seed marks the
// point deadlocked and is excluded from the averages).

SimResult fake_result(double accepted, double latency, bool deadlock = false) {
  SimResult r;
  r.offered = accepted;
  r.accepted = accepted;
  r.avg_latency = latency;
  r.avg_hops = 3.0;
  r.latency_p50 = latency * 0.9;
  r.latency_p99 = latency * 2.5;
  r.latency_max = latency * 3.0;
  r.consumed_packets = 100;
  r.cycles = 1000;
  r.deadlock = deadlock;
  return r;
}

TEST(SweepRunner, DeadlockedSeedExcludedFromAverages) {
  const std::vector<SimResult> per_seed = {
      fake_result(0.5, 100.0),
      fake_result(0.0, 0.0, /*deadlock=*/true),
      fake_result(0.7, 200.0),
  };
  const SimResult agg = SweepRunner::aggregate_seeds(per_seed);
  EXPECT_TRUE(agg.deadlock);
  // Averages over the two surviving seeds only.
  EXPECT_DOUBLE_EQ(agg.accepted, 0.5 / 2 + 0.7 / 2);
  EXPECT_DOUBLE_EQ(agg.avg_latency, 100.0 / 2 + 200.0 / 2);
  // Percentiles average like the other latencies; the max stays a max —
  // the worst latency any surviving seed observed.
  EXPECT_DOUBLE_EQ(agg.latency_p50, 90.0 / 2 + 180.0 / 2);
  EXPECT_DOUBLE_EQ(agg.latency_max, 600.0);
  EXPECT_EQ(agg.consumed_packets, 200);
}

TEST(SweepRunner, AllSeedsDeadlockedYieldsZeroedDeadlockPoint) {
  const std::vector<SimResult> per_seed = {
      fake_result(0.0, 0.0, true),
      fake_result(0.0, 0.0, true),
  };
  const SimResult agg = SweepRunner::aggregate_seeds(per_seed);
  EXPECT_TRUE(agg.deadlock);
  EXPECT_DOUBLE_EQ(agg.accepted, 0.0);
  EXPECT_DOUBLE_EQ(agg.avg_latency, 0.0);
}

TEST(SweepResult, MaximaExcludeDeadlockedPoints) {
  SweepResult sweep;
  SweepRow row;
  row.load = 0.5;
  row.result = fake_result(0.4, 100.0);
  sweep.rows.push_back(row);
  // Deadlocked point carrying a high surviving-seed partial average: it
  // must not become the reported maximum, and a deadlocked saturation
  // point reports zero.
  row.load = 1.0;
  row.result = fake_result(0.9, 50.0, /*deadlock=*/true);
  sweep.rows.push_back(row);
  EXPECT_DOUBLE_EQ(sweep.max_accepted(), 0.4);
  EXPECT_DOUBLE_EQ(sweep.saturation_accepted(), 0.0);
}

TEST(SweepRunner, CleanSeedsDoNotMarkDeadlock) {
  const std::vector<SimResult> per_seed = {fake_result(0.5, 100.0),
                                           fake_result(0.5, 120.0)};
  const SimResult agg = SweepRunner::aggregate_seeds(per_seed);
  EXPECT_FALSE(agg.deadlock);
  EXPECT_DOUBLE_EQ(agg.avg_latency, 110.0);
}

// --- Determinism properties of the seed-ordered reduction.

bool bitwise_identical(const SimResult& a, const SimResult& b) {
  const auto deq = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return deq(a.offered, b.offered) && deq(a.accepted, b.accepted) &&
         deq(a.avg_latency, b.avg_latency) && deq(a.avg_hops, b.avg_hops) &&
         deq(a.request_latency, b.request_latency) &&
         deq(a.reply_latency, b.reply_latency) &&
         deq(a.latency_p50, b.latency_p50) &&
         deq(a.latency_p99, b.latency_p99) &&
         deq(a.latency_max, b.latency_max) &&
         a.consumed_packets == b.consumed_packets &&
         a.deadlock == b.deadlock && a.cycles == b.cycles;
}

TEST(SweepRunner, AggregationInvariantUnderCompletionOrder) {
  // The runner's determinism rests on jobs writing slots indexed by seed
  // and the reduction walking those slots in seed order. Emulate workers
  // finishing in many different orders: whatever order the slots are
  // *written* in, the reduction input — and hence the aggregate — is
  // bit-identical. The values are order-sensitive under naive
  // accumulation (0.1/3 + 0.2/3 + 0.3/3 depends on grouping), so a runner
  // that reduced in completion order would fail this.
  const std::vector<SimResult> by_seed = {
      fake_result(0.1, 77.7), fake_result(0.2, 0.3),
      fake_result(0.0, 0.0, /*deadlock=*/true), fake_result(0.3, 1e-3),
      fake_result(0.7, 123.456)};
  const std::size_t n = by_seed.size();

  std::vector<std::size_t> completion_order(n);
  for (std::size_t i = 0; i < n; ++i) completion_order[i] = i;
  SimResult expected;
  std::mt19937 rng(42);
  for (int trial = 0; trial < 24; ++trial) {
    std::shuffle(completion_order.begin(), completion_order.end(), rng);
    std::vector<SimResult> slots(n);
    for (const std::size_t seed : completion_order)
      slots[seed] = by_seed[seed];  // "job for seed k completes"
    const SimResult agg = SweepRunner::aggregate_seeds(slots);
    if (trial == 0)
      expected = agg;
    else
      EXPECT_TRUE(bitwise_identical(expected, agg)) << "trial " << trial;
  }
  EXPECT_TRUE(expected.deadlock);
}

TEST(SweepRunner, AggregationInvariantUnderDeadlockPlacement) {
  // With the same multiset of results, *where* the deadlocked seeds sit
  // must not change the aggregate: survivors are counted up front and
  // two-term float sums commute.
  const SimResult a = fake_result(0.125, 100.5);
  const SimResult b = fake_result(0.71, 42.25);
  const SimResult dead = fake_result(0.0, 0.0, /*deadlock=*/true);
  const SimResult agg1 =
      SweepRunner::aggregate_seeds({dead, a, dead, b});
  const SimResult agg2 =
      SweepRunner::aggregate_seeds({a, dead, b, dead});
  const SimResult agg3 =
      SweepRunner::aggregate_seeds({a, b, dead, dead});
  EXPECT_TRUE(bitwise_identical(agg1, agg2));
  EXPECT_TRUE(bitwise_identical(agg1, agg3));
  EXPECT_TRUE(agg1.deadlock);
}

TEST(SweepRunner, AllSeedsDeadlockedAggregatesToBitwiseZeroes) {
  // Zero survivors must short-circuit the averaging entirely — a
  // division by survivors=0 would turn every average into NaN. Checked
  // bitwise (NaN would also fail EXPECT_DOUBLE_EQ, but be explicit).
  for (const int n : {1, 2, 5}) {
    const std::vector<SimResult> per_seed(
        static_cast<std::size_t>(n), fake_result(0.0, 0.0, /*deadlock=*/true));
    const SimResult agg = SweepRunner::aggregate_seeds(per_seed);
    EXPECT_TRUE(agg.deadlock);
    SimResult zeroes;
    zeroes.deadlock = true;
    zeroes.cycles = 1000 * n;  // cycles stay a total over all seeds
    EXPECT_TRUE(bitwise_identical(agg, zeroes)) << n << " seeds";
  }
}

TEST(SweepRunner, OneSurvivorAggregatesToExactlyThatSeed) {
  const SimResult survivor = fake_result(0.4375, 99.5);
  const SimResult dead = fake_result(0.0, 0.0, /*deadlock=*/true);
  const SimResult agg =
      SweepRunner::aggregate_seeds({dead, survivor, dead});
  EXPECT_TRUE(agg.deadlock);
  // Division by survivors=1 must be exact: the lone surviving seed's
  // averages pass through unchanged.
  EXPECT_DOUBLE_EQ(agg.accepted, survivor.accepted);
  EXPECT_DOUBLE_EQ(agg.avg_latency, survivor.avg_latency);
  EXPECT_DOUBLE_EQ(agg.avg_hops, survivor.avg_hops);
  EXPECT_DOUBLE_EQ(agg.latency_p50, survivor.latency_p50);
  EXPECT_DOUBLE_EQ(agg.latency_p99, survivor.latency_p99);
  EXPECT_DOUBLE_EQ(agg.latency_max, survivor.latency_max);
  EXPECT_EQ(agg.consumed_packets, survivor.consumed_packets);
  // Cycles stay a total over *all* seeds, deadlocked included.
  EXPECT_EQ(agg.cycles, 3000);
}

// --- JSON report.

std::vector<SweepResult> sample_sweeps() {
  SweepResult sweep;
  sweep.label = "FlexVC 4/2";
  SweepRow row;
  row.load = 0.25;
  row.result = fake_result(0.25, 150.0);
  sweep.rows.push_back(row);
  row.load = 0.5;
  row.result = fake_result(0.0, 0.0, /*deadlock=*/true);
  sweep.rows.push_back(row);
  return {sweep};
}

TEST(JsonReport, EmitsExpectedKeysAndValues) {
  JsonReport report;
  report.set_meta("config", "dragonfly \"tiny\"");
  report.set_meta("jobs", static_cast<std::int64_t>(4));
  report.add_sweep("Fig X", sample_sweeps(), 1.5);
  const std::string doc = report.to_json();

  EXPECT_NE(doc.find("\"config\": \"dragonfly \\\"tiny\\\"\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(doc.find("\"title\": \"Fig X\""), std::string::npos);
  EXPECT_NE(doc.find("\"wall_seconds\": 1.5"), std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"FlexVC 4/2\""), std::string::npos);
  EXPECT_NE(doc.find("\"load\": 0.25"), std::string::npos);
  EXPECT_NE(doc.find("\"accepted\": 0.25"), std::string::npos);
  EXPECT_NE(doc.find("\"latency\": 150"), std::string::npos);
  EXPECT_NE(doc.find("\"latency_p50\": 135"), std::string::npos);
  EXPECT_NE(doc.find("\"latency_p99\": 375"), std::string::npos);
  EXPECT_NE(doc.find("\"latency_max\": 450"), std::string::npos);
  EXPECT_NE(doc.find("\"consumed_packets\": 100"), std::string::npos);
  EXPECT_NE(doc.find("\"deadlock\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"deadlock\": false"), std::string::npos);
  EXPECT_NE(doc.find("\"max_accepted\": 0.25"), std::string::npos);
}

TEST(JsonReport, WriteFileRoundTripsDocument) {
  JsonReport report;
  report.set_meta("seeds", static_cast<std::int64_t>(2));
  report.add_sweep("roundtrip", sample_sweeps(), 0.1);

  const std::string path = ::testing::TempDir() + "flexnet_report.json";
  ASSERT_TRUE(report.write_file(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), report.to_json());
  std::remove(path.c_str());
}

TEST(JsonReport, WriteFileReplacesAnExistingReportAndLeavesNoTemp) {
  JsonReport report;
  report.add_sweep("replace", sample_sweeps(), 0.1);
  const std::string path = ::testing::TempDir() + "flexnet_replaced.json";
  {
    std::ofstream old(path);
    old << "an older, longer report that must not survive the rewrite\n";
  }
  ASSERT_TRUE(report.write_file(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), report.to_json());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(JsonReport, WriteFileFailuresReturnFalseAndLeaveNoTemp) {
  // The tools turn this false into their I/O exit code (4).
  const std::string missing =
      ::testing::TempDir() + "flexnet_no_such_dir/report.json";
  EXPECT_FALSE(JsonReport().write_file(missing));
  // The temp file is written, but a directory cannot be renamed over.
  const std::string dir = ::testing::TempDir() + "flexnet_report_dir";
  std::filesystem::create_directory(dir);
  EXPECT_FALSE(JsonReport().write_file(dir));
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove(dir);
}

TEST(JsonReport, WriteFileWritesAPipeInPlace) {
  // A rename over a pipe (or /dev/stdout) would replace the node itself.
  JsonReport report;
  report.add_sweep("pipe", sample_sweeps(), 0.1);
  const std::string fifo = ::testing::TempDir() + "flexnet_report.fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // Holding the read end open lets the write proceed; the small report
  // fits the pipe's buffer.
  ASSERT_LT(report.to_json().size(), 4096u);
  const int rd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(rd, 0);
  EXPECT_TRUE(report.write_file(fifo));
  std::string read_back;
  char buf[4096];
  for (ssize_t n; (n = ::read(rd, buf, sizeof(buf))) > 0;)
    read_back.append(buf, static_cast<std::size_t>(n));
  ::close(rd);
  EXPECT_EQ(read_back, report.to_json());
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
  EXPECT_FALSE(std::filesystem::exists(fifo + ".tmp"));
  std::remove(fifo.c_str());
}

TEST(JsonReport, EscapingAndNumbers) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(std::nan("")), "null");
  // Round-trip precision: parsing the rendered number recovers the value.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(json_number(v)), v);
}

TEST(JsonReport, MetaOverwritesSameKey) {
  JsonReport report;
  report.set_meta("jobs", static_cast<std::int64_t>(1));
  report.set_meta("jobs", static_cast<std::int64_t>(8));
  const std::string doc = report.to_json();
  EXPECT_NE(doc.find("\"jobs\": 8"), std::string::npos);
  EXPECT_EQ(doc.find("\"jobs\": 1"), std::string::npos);
}

// --- Round-trip: to_json() parsed back by the in-tree JSON parser.

TEST(JsonReport, ParsesBackStructurally) {
  JsonReport report;
  report.set_meta("config", "dragonfly \"tiny\" \\ a\tb \x02 end");
  report.set_meta("jobs", static_cast<std::int64_t>(4));
  report.set_meta("fraction", 0.1 + 0.2);
  report.add_sweep("Fig X", sample_sweeps(), 1.5);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(report.to_json(), &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());

  const JsonValue* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("config")->string,
            "dragonfly \"tiny\" \\ a\tb \x02 end")
      << "escaping must invert exactly";
  EXPECT_DOUBLE_EQ(meta->find("jobs")->number, 4.0);
  EXPECT_EQ(meta->find("fraction")->number, 0.1 + 0.2)
      << "doubles must survive the round trip bit-exactly";

  const JsonValue* sweeps = doc.find("sweeps");
  ASSERT_NE(sweeps, nullptr);
  ASSERT_EQ(sweeps->array.size(), 1u);
  const JsonValue& sweep = sweeps->array[0];
  EXPECT_EQ(sweep.find("title")->string, "Fig X");
  EXPECT_DOUBLE_EQ(sweep.find("wall_seconds")->number, 1.5);

  const JsonValue* series = sweep.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->array.size(), 1u);
  const JsonValue& s = series->array[0];
  EXPECT_EQ(s.find("label")->string, "FlexVC 4/2");
  EXPECT_DOUBLE_EQ(s.find("max_accepted")->number, 0.25);

  const JsonValue* rows = s.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 2u);
  const JsonValue& row = rows->array[0];
  EXPECT_EQ(row.find("load")->number, 0.25);
  EXPECT_EQ(row.find("accepted")->number, 0.25);
  EXPECT_EQ(row.find("latency")->number, 150.0);
  EXPECT_EQ(row.find("hops")->number, 3.0);
  EXPECT_EQ(row.find("consumed_packets")->number, 100.0);
  EXPECT_EQ(row.find("cycles")->number, 1000.0);
  EXPECT_FALSE(row.find("deadlock")->boolean);
  EXPECT_TRUE(rows->array[1].find("deadlock")->boolean);
}

TEST(JsonReport, NonFiniteValuesParseBackAsNull) {
  SweepResult sweep;
  sweep.label = "nan sweep";
  SweepRow row;
  row.load = 0.5;
  row.result = fake_result(0.5, std::numeric_limits<double>::quiet_NaN());
  row.result.avg_hops = std::numeric_limits<double>::infinity();
  sweep.rows.push_back(row);
  JsonReport report;
  report.add_sweep("nans", {sweep}, 0.0);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(report.to_json(), &doc, &error)) << error;
  const JsonValue& parsed_row =
      doc.find("sweeps")->array[0].find("series")->array[0].find("rows")
          ->array[0];
  EXPECT_TRUE(parsed_row.find("latency")->is_null());
  EXPECT_TRUE(parsed_row.find("hops")->is_null());
  EXPECT_EQ(parsed_row.find("accepted")->number, 0.5);
}

TEST(JsonReport, EscapingControlCharsAndNonFiniteNumbers) {
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape("tab\tnl\ncr\r"), "tab\\tnl\\ncr\\r");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::nan("")), "null");
  EXPECT_EQ(json_number(2.0), "2");
}

TEST(JsonParser, DecodesEscapesAndRejectsGarbage) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(json_parse("\"a\\\"b\\\\c\\nd\\u0041\\u00e9\"", &v, &error))
      << error;
  EXPECT_EQ(v.string, "a\"b\\c\nd" "A" "\xc3\xa9");

  EXPECT_FALSE(json_parse("{\"a\": }", &v, &error));
  EXPECT_NE(error.find("byte"), std::string::npos)
      << "errors should carry a position: " << error;
  EXPECT_FALSE(json_parse("[1, 2", &v, &error));
  EXPECT_FALSE(json_parse("01", &v, &error));
  EXPECT_FALSE(json_parse("NaN", &v, &error));
  EXPECT_FALSE(json_parse("{} trailing", &v, &error));
  EXPECT_FALSE(json_parse("\"\\u0001", &v, &error));
}

}  // namespace
}  // namespace flexnet
