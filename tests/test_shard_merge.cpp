// Process-level shard/merge: the ShardPlan partition (disjoint, covering,
// deterministic for adversarial grid shapes), the read-only journal
// parser and merge semantics (dedupe, conflict rejection, fingerprint
// guard, torn-tail tolerance), and the headline battery — the smoke suite
// executed as {2,3,7} shards x {1,4} workers merges into rows and a JSON
// report bit-identical to the single-process serial run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json_report.hpp"
#include "runner/shard.hpp"
#include "runner/sweep_runner.hpp"
#include "scenario/suite.hpp"
#include "shipped_suites.hpp"

namespace flexnet {
namespace {

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

void expect_identical_sweeps(const std::vector<SweepResult>& a,
                             const std::vector<SweepResult>& b,
                             const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].label, b[s].label) << context;
    ASSERT_EQ(a[s].rows.size(), b[s].rows.size()) << context;
    for (std::size_t r = 0; r < a[s].rows.size(); ++r) {
      EXPECT_TRUE(bits_equal(a[s].rows[r].load, b[s].rows[r].load)) << context;
      EXPECT_TRUE(
          result_bits_equal(a[s].rows[r].result, b[s].rows[r].result))
          << context << " series " << s << " row " << r;
    }
  }
}

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

// ---------------------------------------------------------------------------
// --shard spec parsing (the CLI spelling).

TEST(ShardSpecParse, AcceptsOneBasedSpecs) {
  const struct {
    const char* text;
    int index, count;
  } cases[] = {{"1/1", 0, 1}, {"1/3", 0, 3}, {"3/3", 2, 3}, {"2/7", 1, 7}};
  for (const auto& c : cases) {
    ShardSpec spec;
    std::string error;
    EXPECT_TRUE(parse_shard_spec(c.text, &spec, &error)) << c.text << error;
    EXPECT_EQ(spec.index, c.index) << c.text;
    EXPECT_EQ(spec.count, c.count) << c.text;
    EXPECT_EQ(spec.to_string(), c.text);
  }
  ShardSpec serial;
  std::string error;
  ASSERT_TRUE(parse_shard_spec("1/1", &serial, &error));
  EXPECT_FALSE(serial.sharded());
}

TEST(ShardSpecParse, RejectsMalformedSpecs) {
  // "1/4294967297" and "2/4294967298" are the int-truncation traps: the
  // values fit a 64-bit long but would wrap to 1/1 and 2/2 through int,
  // silently running the wrong (or whole) job subset.
  for (const char* bad :
       {"0/3", "4/3", "x/3", "3/x", "3/", "/3", "3/0", "-1/3", "+1/3",
        "1/3x", "1.5/3", "", "1//3", "1 /3", "999999999999999999999/3",
        "1/4294967297", "2/4294967298"}) {
    ShardSpec spec;
    std::string error;
    EXPECT_FALSE(parse_shard_spec(bad, &spec, &error)) << bad;
    EXPECT_NE(error.find("invalid shard spec"), std::string::npos) << bad;
    EXPECT_NE(error.find("expected i/N"), std::string::npos) << bad;
  }
}

// ---------------------------------------------------------------------------
// ShardPlan: every plan is a disjoint cover, for adversarial shapes.

void expect_disjoint_cover(std::size_t points, int seeds, int count) {
  const std::string context = std::to_string(points) + "x" +
                              std::to_string(seeds) + " grid, " +
                              std::to_string(count) + " shards";
  std::vector<ShardPlan> plans;
  std::vector<std::size_t> claimed(static_cast<std::size_t>(count), 0);
  for (int i = 0; i < count; ++i)
    plans.emplace_back(points, seeds, ShardSpec{i, count});

  std::size_t total = 0;
  for (std::size_t p = 0; p < points; ++p) {
    for (int k = 0; k < seeds; ++k) {
      int owners = 0;
      for (int i = 0; i < count; ++i) {
        if (plans[static_cast<std::size_t>(i)].contains(p, k)) {
          ++owners;
          ++claimed[static_cast<std::size_t>(i)];
        }
      }
      ASSERT_EQ(owners, 1) << context << ": job (" << p << "," << k
                           << ") must be owned by exactly one shard";
      const int owner = ShardPlan::owner(p, k, seeds, count);
      ASSERT_GE(owner, 0) << context;
      ASSERT_LT(owner, count) << context;
      EXPECT_TRUE(plans[static_cast<std::size_t>(owner)].contains(p, k))
          << context;
      ++total;
    }
  }
  EXPECT_EQ(total, points * static_cast<std::size_t>(seeds)) << context;

  // job_count() agrees with the enumeration, and the split is balanced to
  // within one job.
  std::size_t min_claim = total, max_claim = 0;
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(plans[static_cast<std::size_t>(i)].job_count(),
              claimed[static_cast<std::size_t>(i)])
        << context << " shard " << i;
    min_claim = std::min(min_claim, claimed[static_cast<std::size_t>(i)]);
    max_claim = std::max(max_claim, claimed[static_cast<std::size_t>(i)]);
  }
  EXPECT_LE(max_claim - min_claim, 1u) << context;
}

TEST(ShardPlan, DisjointCoverForAdversarialShapes) {
  // 1-job grids, prime-sized grids, N > job count (some shards empty),
  // N == job count, and ordinary rectangles.
  const struct {
    std::size_t points;
    int seeds;
  } shapes[] = {{1, 1}, {13, 1}, {1, 13}, {7, 3}, {4, 2}, {5, 5}, {11, 2}};
  for (const auto& shape : shapes)
    for (const int count : {1, 2, 3, 7, 8, 50})
      expect_disjoint_cover(shape.points, shape.seeds, count);
}

TEST(ShardPlan, AssignmentIsDeterministic) {
  // The owner is a pure function of (job, shape): identical across plan
  // instances, processes, and machines by construction.
  const ShardPlan a(7, 3, ShardSpec{2, 5});
  const ShardPlan b(7, 3, ShardSpec{2, 5});
  for (std::size_t p = 0; p < 7; ++p)
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(a.contains(p, k), b.contains(p, k));
      EXPECT_EQ(ShardPlan::owner(p, k, 3, 5), ShardPlan::owner(p, k, 3, 5));
    }
}

TEST(ShardPlan, EmptyShardWhenCountExceedsJobs) {
  // N > job count: the surplus shards own nothing but the cover holds.
  const ShardPlan last(1, 1, ShardSpec{6, 7});
  EXPECT_EQ(last.job_count(), 0u);
  EXPECT_FALSE(last.contains(0, 0));
  const ShardPlan first(1, 1, ShardSpec{0, 7});
  EXPECT_EQ(first.job_count(), 1u);
  EXPECT_TRUE(first.contains(0, 0));
}

// ---------------------------------------------------------------------------
// read_journal: the read-only merge-side parser.

SimResult make_result(double v, bool deadlock = false) {
  SimResult r;
  r.offered = v;
  r.accepted = v / 2;
  r.avg_latency = v * 100;
  r.avg_hops = 3.0 + v;
  r.request_latency = v * 7;
  r.reply_latency = v * 9;
  r.latency_p50 = v * 90;
  r.latency_p99 = v * 250;
  r.latency_max = v * 300;
  r.consumed_packets = static_cast<std::int64_t>(v * 1000);
  r.deadlock = deadlock;
  r.cycles = 600;
  return r;
}

/// Writes a journal for grid identity (fp, points, seeds) holding
/// `records`, via the production writer.
void write_journal(const std::string& path, std::uint64_t fp,
                   std::size_t points, int seeds,
                   const std::vector<CheckpointRecord>& records) {
  std::remove(path.c_str());
  CheckpointJournal journal(path);
  ASSERT_TRUE(journal.open(fp, points, seeds).empty()) << path;
  for (const auto& rec : records)
    journal.append(rec.point, rec.seed, rec.result);
}

TEST(ReadJournal, RoundTripsIdentityAndRecords) {
  const std::string path = temp_path("sm_read.journal");
  std::vector<CheckpointRecord> written;
  written.push_back({2, 1, make_result(0.1 + 0.2)});
  written.push_back({0, 0, make_result(1e-300, /*deadlock=*/true)});
  write_journal(path, 0xfeedface, 4, 2, written);

  const JournalContents contents = read_journal(path);
  EXPECT_EQ(contents.fingerprint, 0xfeedfaceull);
  EXPECT_EQ(contents.points, 4u);
  EXPECT_EQ(contents.seeds, 2);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(contents.records[i].point, written[i].point);
    EXPECT_EQ(contents.records[i].seed, written[i].seed);
    EXPECT_TRUE(
        result_bits_equal(contents.records[i].result, written[i].result))
        << i;
  }
  std::remove(path.c_str());
}

TEST(ReadJournal, TornTrailingRecordDiscardedWithoutModifyingTheFile) {
  const std::string path = temp_path("sm_torn.journal");
  std::vector<CheckpointRecord> written;
  for (int i = 0; i < 3; ++i) written.push_back(
      {static_cast<std::size_t>(i), 0, make_result(0.1 * (i + 1))});
  write_journal(path, 7, 4, 2, written);
  const std::string full = read_file(path);
  const std::string torn = full.substr(0, full.size() - 9);
  write_file(path, torn);

  const JournalContents contents = read_journal(path);
  EXPECT_TRUE(contents.torn_tail);
  EXPECT_EQ(contents.records.size(), 2u);  // third record lost with the tear
  EXPECT_EQ(read_file(path), torn)
      << "read_journal must never modify the input file";
  std::remove(path.c_str());
}

TEST(ReadJournal, RejectsMissingEmptyForeignAndCorruptFiles) {
  const std::string missing = temp_path("sm_missing.journal");
  std::remove(missing.c_str());
  EXPECT_THROW(read_journal(missing), CheckpointError);

  const std::string empty = temp_path("sm_empty.journal");
  write_file(empty, "");
  EXPECT_THROW(read_journal(empty), CheckpointError);

  const std::string foreign = temp_path("sm_foreign.journal");
  write_file(foreign, "{\"meta\": \"a json report, not a journal\"}\n");
  EXPECT_THROW(read_journal(foreign), CheckpointError);

  // Corruption before the trailing record is an error, exactly as for the
  // resume path: only the tail may be damaged.
  const std::string corrupt = temp_path("sm_corrupt.journal");
  std::vector<CheckpointRecord> written;
  for (int i = 0; i < 4; ++i)
    written.push_back({static_cast<std::size_t>(i), 0, make_result(0.5)});
  write_journal(corrupt, 7, 4, 2, written);
  std::string bytes = read_file(corrupt);
  std::size_t pos = bytes.find('\n') + 5;  // inside the first record
  pos = bytes.find('\n', pos) + 5;         // inside the second record
  bytes[pos] = bytes[pos] == 'x' ? 'y' : 'x';
  write_file(corrupt, bytes);
  EXPECT_THROW(read_journal(corrupt), CheckpointError);

  std::remove(empty.c_str());
  std::remove(foreign.c_str());
  std::remove(corrupt.c_str());
}

// ---------------------------------------------------------------------------
// merge_journals: dedupe, conflicts, fingerprint guard, torn tails.

JournalContents contents_with(std::uint64_t fp, std::size_t points, int seeds,
                              std::vector<CheckpointRecord> records) {
  JournalContents c;
  c.fingerprint = fp;
  c.points = points;
  c.seeds = seeds;
  c.records = std::move(records);
  return c;
}

TEST(MergeJournals, DisjointShardsMergeSortedByPointAndSeed) {
  std::vector<ShardJournal> shards;
  shards.push_back({"a", contents_with(1, 2, 2, {{1, 1, make_result(0.4)},
                                                 {0, 1, make_result(0.2)}})});
  shards.push_back({"b", contents_with(1, 2, 2, {{1, 0, make_result(0.3)},
                                                 {0, 0, make_result(0.1)}})});
  const auto merged = merge_journals(shards);
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const auto prev = std::make_pair(merged[i - 1].point, merged[i - 1].seed);
    const auto cur = std::make_pair(merged[i].point, merged[i].seed);
    EXPECT_LT(prev, cur) << "merge output must be sorted by (point, seed)";
  }
  EXPECT_TRUE(bits_equal(merged[0].result.offered, 0.1));
  EXPECT_TRUE(bits_equal(merged[3].result.offered, 0.4));
}

TEST(MergeJournals, IdenticalDuplicatesDedupe) {
  // Overlapping shard sets (or a merged journal fed back in) are fine as
  // long as every duplicate is bit-identical.
  const CheckpointRecord dup{1, 0, make_result(0.25)};
  std::vector<ShardJournal> shards;
  shards.push_back({"a", contents_with(1, 2, 1, {{0, 0, make_result(0.5)},
                                                 dup})});
  shards.push_back({"b", contents_with(1, 2, 1, {dup})});
  const auto merged = merge_journals(shards);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[1].point, 1u);
  EXPECT_TRUE(result_bits_equal(merged[1].result, dup.result));
}

TEST(MergeJournals, ConflictingDuplicateIsAHardErrorNamingTheKey) {
  std::vector<ShardJournal> shards;
  shards.push_back(
      {"run1.journal", contents_with(1, 3, 2, {{2, 1, make_result(0.5)}})});
  shards.push_back(
      {"run2.journal", contents_with(1, 3, 2, {{2, 1, make_result(0.6)}})});
  try {
    merge_journals(shards);
    FAIL() << "conflicting records must not merge";
  } catch (const CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("point 2 seed 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("run1.journal"), std::string::npos) << msg;
    EXPECT_NE(msg.find("run2.journal"), std::string::npos) << msg;
  }
}

TEST(MergeJournals, FingerprintOrShapeMismatchRejected) {
  const auto reject = [](JournalContents b) {
    std::vector<ShardJournal> shards;
    shards.push_back({"good.journal", contents_with(1, 2, 2, {})});
    shards.push_back({"bad.journal", std::move(b)});
    try {
      merge_journals(shards);
      FAIL() << "grid identity mismatch must not merge";
    } catch (const CheckpointError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("good.journal"), std::string::npos) << msg;
      EXPECT_NE(msg.find("bad.journal"), std::string::npos) << msg;
      EXPECT_NE(msg.find("disagree"), std::string::npos) << msg;
    }
  };
  reject(contents_with(2, 2, 2, {}));  // different fingerprint
  reject(contents_with(1, 3, 2, {}));  // different point count
  reject(contents_with(1, 2, 3, {}));  // different seed count
  EXPECT_THROW(merge_journals({}), CheckpointError);
}

TEST(MergeJournals, TornShardJournalDoesNotPoisonTheMerge) {
  // Shard B crashed mid-write: its torn trailing record is discarded on
  // read; the merge of [full A, torn B] succeeds with the intact union.
  const std::string path_a = temp_path("sm_merge_a.journal");
  const std::string path_b = temp_path("sm_merge_b.journal");
  write_journal(path_a, 9, 2, 2,
                {{0, 0, make_result(0.1)}, {0, 1, make_result(0.2)}});
  write_journal(path_b, 9, 2, 2,
                {{1, 0, make_result(0.3)}, {1, 1, make_result(0.4)}});
  const std::string full_b = read_file(path_b);
  write_file(path_b, full_b.substr(0, full_b.size() - 9));

  std::vector<ShardJournal> shards;
  shards.push_back({path_a, read_journal(path_a)});
  shards.push_back({path_b, read_journal(path_b)});
  EXPECT_FALSE(shards[0].contents.torn_tail);
  EXPECT_TRUE(shards[1].contents.torn_tail);
  const auto merged = merge_journals(shards);
  EXPECT_EQ(merged.size(), 3u);  // B's second record lost with the tear
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// ---------------------------------------------------------------------------
// Synthetic shard/merge/aggregate equivalence with deadlocked seeds (no
// simulations): journaling fabricated results shard-wise and merging must
// reproduce the direct seed-ordered aggregation bit for bit, wherever the
// deadlocks land and however the grid splits.

TEST(ShardMergeSynthetic, DeadlockedSeedsAggregateIdenticallyThroughMerge) {
  constexpr std::size_t kPoints = 5;
  constexpr int kSeeds = 3;
  std::vector<std::vector<SimResult>> slots(
      kPoints, std::vector<SimResult>(static_cast<std::size_t>(kSeeds)));
  for (std::size_t p = 0; p < kPoints; ++p)
    for (int k = 0; k < kSeeds; ++k) {
      // Deadlocks scattered over points and seed positions, including one
      // all-deadlocked point (p == 3).
      const bool deadlock = (p == 3) || (p + static_cast<std::size_t>(k)) % 4 == 0;
      slots[p][static_cast<std::size_t>(k)] =
          make_result(0.01 * static_cast<double>(p * 7 + k + 1), deadlock);
    }

  std::vector<SimResult> direct;
  for (std::size_t p = 0; p < kPoints; ++p)
    direct.push_back(SweepRunner::aggregate_seeds(slots[p]));

  for (const int count : {2, 3, 7}) {
    // Journal each shard's jobs, as N independent processes would.
    std::vector<ShardJournal> shards;
    std::vector<std::string> paths;
    for (int i = 0; i < count; ++i) {
      const ShardPlan plan(kPoints, kSeeds, ShardSpec{i, count});
      std::vector<CheckpointRecord> records;
      for (std::size_t p = 0; p < kPoints; ++p)
        for (int k = 0; k < kSeeds; ++k)
          if (plan.contains(p, k))
            records.push_back({p, k, slots[p][static_cast<std::size_t>(k)]});
      const std::string path = temp_path(
          "sm_synth_" + std::to_string(count) + "_" + std::to_string(i) +
          ".journal");
      write_journal(path, 11, kPoints, kSeeds, records);
      shards.push_back({path, read_journal(path)});
      paths.push_back(path);
    }

    const auto merged = merge_journals(shards);
    ASSERT_EQ(merged.size(), kPoints * kSeeds) << count << " shards";
    std::vector<std::vector<SimResult>> refilled(
        kPoints, std::vector<SimResult>(static_cast<std::size_t>(kSeeds)));
    for (const auto& rec : merged)
      refilled[rec.point][static_cast<std::size_t>(rec.seed)] = rec.result;
    for (std::size_t p = 0; p < kPoints; ++p) {
      EXPECT_TRUE(result_bits_equal(
          SweepRunner::aggregate_seeds(refilled[p]), direct[p]))
          << count << " shards, point " << p;
    }
    for (const std::string& path : paths) std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// The headline battery: the smoke suite, serial vs {2,3,7} shards x {1,4}
// workers, merged — rows and the JSON report must match the serial run
// exactly (canonical report equality: identical meta, identical bytes).

class SmokeShardBattery : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const SuiteSpec spec = load_shipped_suite("smoke_tiny.json");
    // The shipped grid at test-speed cycle counts (the determinism
    // guarantee is independent of warmup/measure).
    SimConfig defaults;
    Options fast;
    fast.set("warmup", "200");
    fast.set("measure", "400");
    grid_ = new std::vector<ExperimentSeries>(
        spec.materialize(defaults, &fast));
    loads_ = new std::vector<double>(spec.loads);
    seeds_ = spec.seeds_or(1);
    fingerprint_ = grid_fingerprint(*grid_, *loads_, seeds_);
    serial_ = new std::vector<SweepResult>(
        SweepRunner(1).run(*grid_, *loads_, seeds_));
  }

  static void TearDownTestSuite() {
    delete grid_;
    delete loads_;
    delete serial_;
  }

  static std::size_t num_points() { return grid_->size() * loads_->size(); }

  /// The report both sides render: fixed meta (no volatile jobs/checkpoint
  /// keys), zero wall-clock — byte equality then means every row value,
  /// label, and load is bit-identical.
  static std::string canonical_report(const std::vector<SweepResult>& rows) {
    JsonReport report;
    report.set_meta("suite", "smoke_tiny.json");
    report.set_meta("seeds", static_cast<std::int64_t>(seeds_));
    report.add_sweep("battery", rows, 0.0);
    return report.to_json();
  }

  /// Runs shard i/count of the grid with `workers` workers, journaling to
  /// a temp path, and returns that path.
  static std::string run_shard(int i, int count, int workers) {
    const std::string path =
        temp_path("sm_battery_" + std::to_string(count) + "_" +
                  std::to_string(i) + ".journal");
    std::remove(path.c_str());
    SweepRunner runner(workers);
    runner.set_checkpoint(path);
    runner.set_shard(ShardSpec{i, count});
    runner.run(*grid_, *loads_, seeds_);
    return path;
  }

  /// Merges the given shard journals and aggregates them into sweep rows
  /// exactly as tools/flexnet_merge does.
  static std::vector<SweepResult> merge_to_rows(
      const std::vector<std::string>& paths) {
    std::vector<ShardJournal> shards;
    for (const std::string& path : paths) {
      shards.push_back({path, read_journal(path)});
      EXPECT_EQ(shards.back().contents.fingerprint, fingerprint_) << path;
    }
    const auto records = merge_journals(shards);
    EXPECT_EQ(records.size(),
              num_points() * static_cast<std::size_t>(seeds_));
    std::vector<std::vector<SimResult>> per_seed(
        num_points(), std::vector<SimResult>(static_cast<std::size_t>(seeds_)));
    for (const auto& rec : records)
      per_seed[rec.point][static_cast<std::size_t>(rec.seed)] = rec.result;
    return SweepRunner::reduce_slots(*grid_, *loads_, per_seed);
  }

  static std::vector<ExperimentSeries>* grid_;
  static std::vector<double>* loads_;
  static int seeds_;
  static std::uint64_t fingerprint_;
  static std::vector<SweepResult>* serial_;
};

std::vector<ExperimentSeries>* SmokeShardBattery::grid_ = nullptr;
std::vector<double>* SmokeShardBattery::loads_ = nullptr;
int SmokeShardBattery::seeds_ = 0;
std::uint64_t SmokeShardBattery::fingerprint_ = 0;
std::vector<SweepResult>* SmokeShardBattery::serial_ = nullptr;

TEST_F(SmokeShardBattery, MergedShardsMatchSerialBitForBit) {
  const std::string serial_report = canonical_report(*serial_);
  for (const int count : {2, 3, 7}) {
    for (const int workers : {1, 4}) {
      const std::string context = std::to_string(count) + " shards x " +
                                  std::to_string(workers) + " workers";
      std::vector<std::string> paths;
      for (int i = 0; i < count; ++i)
        paths.push_back(run_shard(i, count, workers));
      const std::vector<SweepResult> merged = merge_to_rows(paths);
      expect_identical_sweeps(*serial_, merged, context);
      EXPECT_EQ(canonical_report(merged), serial_report)
          << context << ": merged JSON report must equal the serial "
          << "report byte for byte";
      for (const std::string& path : paths) std::remove(path.c_str());
    }
  }
}

TEST_F(SmokeShardBattery, ShardJournalsHoldExactlyTheShardsJobs) {
  // Each shard journals its own jobs and nothing else; the union over all
  // shards is the full grid, with no overlap.
  constexpr int kCount = 3;
  std::vector<std::string> paths;
  std::set<std::pair<std::size_t, int>> seen;
  for (int i = 0; i < kCount; ++i) {
    paths.push_back(run_shard(i, kCount, /*workers=*/2));
    const JournalContents contents = read_journal(paths.back());
    const ShardPlan plan(num_points(), seeds_, ShardSpec{i, kCount});
    EXPECT_EQ(contents.records.size(), plan.job_count()) << i;
    for (const auto& rec : contents.records) {
      EXPECT_TRUE(plan.contains(rec.point, rec.seed))
          << "shard " << i << " journaled a job it does not own";
      EXPECT_TRUE(seen.emplace(rec.point, rec.seed).second)
          << "job journaled by two shards";
    }
  }
  EXPECT_EQ(seen.size(), num_points() * static_cast<std::size_t>(seeds_));
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST_F(SmokeShardBattery, CrashedShardResumesAndStillMergesIdentically) {
  // Shard 2 of 3 "crashes" (journal truncated mid-record), resumes at a
  // different worker count, and the re-merged result is still identical
  // to serial — the process-level resume story, in-process.
  constexpr int kCount = 3;
  std::vector<std::string> paths;
  for (int i = 0; i < kCount; ++i)
    paths.push_back(run_shard(i, kCount, /*workers=*/2));

  const std::string victim = paths[1];
  const std::string full = read_file(victim);
  write_file(victim, full.substr(0, full.size() - 9));  // tear the tail
  {
    SweepRunner runner(4);  // resumed at a different worker count
    runner.set_checkpoint(victim);
    runner.set_shard(ShardSpec{1, kCount});
    runner.run(*grid_, *loads_, seeds_);
  }
  const std::vector<SweepResult> merged = merge_to_rows(paths);
  expect_identical_sweeps(*serial_, merged, "crashed-shard resume merge");
  EXPECT_EQ(canonical_report(merged), canonical_report(*serial_));
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace flexnet
