// Checkpoint/resume: the journal's crash-tolerant record format, the grid
// fingerprint that guards against stale reuse, and the headline guarantee —
// a sweep interrupted at any byte (job boundary or mid-record) and resumed
// via the journal produces bit-identical SweepResult rows to an
// uninterrupted run, at 1 and 4 workers alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/checkpoint.hpp"
#include "runner/json_report.hpp"
#include "runner/sweep_runner.hpp"

namespace flexnet {
namespace {

// Bit-level double equality: distinguishes -0.0 from 0.0 and treats equal
// NaN patterns as equal — "bit-identical" taken literally.
bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

bool identical(const SimResult& a, const SimResult& b) {
  return bits_equal(a.offered, b.offered) &&
         bits_equal(a.accepted, b.accepted) &&
         bits_equal(a.avg_latency, b.avg_latency) &&
         bits_equal(a.avg_hops, b.avg_hops) &&
         bits_equal(a.request_latency, b.request_latency) &&
         bits_equal(a.reply_latency, b.reply_latency) &&
         bits_equal(a.latency_p50, b.latency_p50) &&
         bits_equal(a.latency_p99, b.latency_p99) &&
         bits_equal(a.latency_max, b.latency_max) &&
         a.consumed_packets == b.consumed_packets &&
         a.deadlock == b.deadlock && a.cycles == b.cycles;
}

void expect_identical_sweeps(const std::vector<SweepResult>& a,
                             const std::vector<SweepResult>& b,
                             const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].label, b[s].label) << context;
    ASSERT_EQ(a[s].rows.size(), b[s].rows.size()) << context;
    for (std::size_t r = 0; r < a[s].rows.size(); ++r) {
      EXPECT_TRUE(bits_equal(a[s].rows[r].load, b[s].rows[r].load))
          << context;
      EXPECT_TRUE(identical(a[s].rows[r].result, b[s].rows[r].result))
          << context << " series " << s << " row " << r;
    }
  }
}

// The tiny grid every resume test runs: 2 series x 2 loads x 2 seeds.
std::vector<ExperimentSeries> tiny_series() {
  SimConfig base;
  base.warmup = 200;
  base.measure = 400;
  std::vector<ExperimentSeries> series;
  series.push_back({"baseline", base});
  SimConfig flex = base;
  flex.policy = "flexvc";
  flex.vcs = "4/2";
  series.push_back({"flexvc", flex});
  return series;
}

const std::vector<double> kLoads = {0.2, 0.4};
constexpr int kSeeds = 2;

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

// Byte offset just past the n-th '\n' (n >= 1), i.e. a clean line boundary.
std::size_t line_boundary(const std::string& bytes, int n) {
  std::size_t pos = 0;
  for (int i = 0; i < n; ++i) {
    pos = bytes.find('\n', pos);
    EXPECT_NE(pos, std::string::npos);
    ++pos;
  }
  return pos;
}

// --- Journal unit behaviour (no simulations).

TEST(CheckpointJournal, RoundTripsRecordsBitExactly) {
  const std::string path = temp_path("ck_roundtrip.journal");
  std::remove(path.c_str());

  std::vector<CheckpointRecord> written;
  SimResult r;
  r.offered = 0.1 + 0.2;  // classic non-representable sum
  r.accepted = 1e-300;
  r.avg_latency = 5e-324;  // denormal min
  r.avg_hops = -0.0;
  r.request_latency = 123456.789;
  r.reply_latency = 0.0;
  r.latency_p50 = 0.1 + 0.7;
  r.latency_p99 = 1e308;  // near double max
  r.latency_max = 4503599627370497.0;  // 2^52 + 1: needs every mantissa bit
  r.consumed_packets = 1234567890123ll;
  r.deadlock = false;
  r.cycles = 600;
  written.push_back({3, 1, r});
  r.deadlock = true;
  r.accepted = 0.0;
  written.push_back({0, 0, r});

  {
    CheckpointJournal journal(path);
    EXPECT_TRUE(journal.open(0x1234abcd, /*points=*/4, /*seeds=*/2).empty());
    for (const auto& rec : written)
      journal.append(rec.point, rec.seed, rec.result);
  }
  CheckpointJournal reread(path);
  const auto records = reread.open(0x1234abcd, 4, 2);
  ASSERT_EQ(records.size(), written.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].point, written[i].point);
    EXPECT_EQ(records[i].seed, written[i].seed);
    EXPECT_TRUE(identical(records[i].result, written[i].result)) << i;
  }
  std::remove(path.c_str());
}

TEST(CheckpointJournal, WrongFingerprintOrShapeRejected) {
  const std::string path = temp_path("ck_mismatch.journal");
  std::remove(path.c_str());
  {
    CheckpointJournal journal(path);
    journal.open(/*fingerprint=*/42, /*points=*/2, /*seeds=*/2);
  }
  EXPECT_THROW(CheckpointJournal(path).open(43, 2, 2), CheckpointError);
  EXPECT_THROW(CheckpointJournal(path).open(42, 3, 2), CheckpointError);
  EXPECT_THROW(CheckpointJournal(path).open(42, 2, 1), CheckpointError);
  // The matching identity still loads.
  EXPECT_NO_THROW(CheckpointJournal(path).open(42, 2, 2));
  std::remove(path.c_str());
}

// A checksummed journal line, as the writer would emit it.
std::string journal_line(const std::string& body) {
  char crc[24];
  std::snprintf(crc, sizeof(crc), " %016llx",
                static_cast<unsigned long long>(
                    fnv1a64(body.data(), body.size())));
  return body + crc + "\n";
}

TEST(CheckpointJournal, RecordOutOfGridRangeRejected) {
  const std::string path = temp_path("ck_range.journal");
  // A well-formed journal whose record coordinates exceed the declared
  // grid: valid checksum, nonsense content — corruption, not resume
  // material.
  write_file(
      path,
      journal_line(
          "flexnet-checkpoint v2 fp=0000000000000007 points=4 seeds=2") +
          journal_line("R 9 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
                       "0x0p+0 0x0p+0 0x0p+0 0 0 0") +
          journal_line("R 0 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
                       "0x0p+0 0x0p+0 0x0p+0 0 0 0"));
  EXPECT_THROW(CheckpointJournal(path).open(7, 4, 2), CheckpointError)
      << "point index out of range must not be silently dropped";
  std::remove(path.c_str());
}

TEST(CheckpointJournal, OlderFormatVersionNamedInTheError) {
  // A v1 journal (pre-percentile records) must be called out as a format
  // mismatch, not generic corruption — the fix (re-run the sweep) is
  // different from the fix for a damaged file.
  const std::string path = temp_path("ck_v1.journal");
  write_file(path,
             journal_line(
                 "flexnet-checkpoint v1 fp=0000000000000007 points=4 "
                 "seeds=2") +
                 journal_line("R 0 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
                              "0x0p+0 0 0 0"));
  try {
    CheckpointJournal(path).open(7, 4, 2);
    FAIL() << "a v1 journal must not open";
  } catch (const CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("older record format"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v2"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(CheckpointJournal, CorruptionBeforeTrailingRecordRejected) {
  const std::string path = temp_path("ck_corrupt.journal");
  std::remove(path.c_str());
  {
    CheckpointJournal journal(path);
    journal.open(7, 4, 2);
    for (int i = 0; i < 4; ++i) journal.append(i, 0, SimResult{});
  }
  std::string bytes = read_file(path);
  // Flip one byte inside the second record (not the last line).
  const std::size_t off = line_boundary(bytes, 2) + 5;
  bytes[off] = bytes[off] == 'x' ? 'y' : 'x';
  write_file(path, bytes);
  EXPECT_THROW(CheckpointJournal(path).open(7, 4, 2), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointJournal, TornTrailingRecordTruncatedAndAppendable) {
  const std::string path = temp_path("ck_torn.journal");
  std::remove(path.c_str());
  {
    CheckpointJournal journal(path);
    journal.open(7, 4, 2);
    for (int i = 0; i < 3; ++i) journal.append(i, 0, SimResult{});
  }
  const std::string bytes = read_file(path);
  // Cut mid-way through the last record, as an interrupted write would.
  write_file(path, bytes.substr(0, bytes.size() - 9));
  {
    CheckpointJournal journal(path);
    const auto records = journal.open(7, 4, 2);
    EXPECT_EQ(records.size(), 2u);  // third record lost with the tear
    journal.append(2, 0, SimResult{});
    journal.append(3, 0, SimResult{});
  }
  // The repaired journal parses end to end: tear gone, appends intact.
  const auto records = CheckpointJournal(path).open(7, 4, 2);
  EXPECT_EQ(records.size(), 4u);
  std::remove(path.c_str());
}

TEST(CheckpointJournal, EveryAppendReachesTheFileBeforeTheFsyncBatch) {
  // The file grows once per finished job — the orchestrator reads a shard's
  // liveness from it — though fsync waits for kFsyncBatch records.
  static_assert(CheckpointJournal::kFsyncBatch > 2, "test appends 2");
  const std::string path = temp_path("ck_flush.journal");
  std::remove(path.c_str());
  CheckpointJournal journal(path);
  journal.open(7, 4, 2);
  std::size_t size = read_file(path).size();
  for (int i = 0; i < 2; ++i) {
    journal.append(i, 0, SimResult{});
    const std::string bytes = read_file(path);
    EXPECT_GT(bytes.size(), size) << "append " << i << " not on disk";
    EXPECT_EQ(bytes.back(), '\n');
    size = bytes.size();
  }
  journal.close();
  EXPECT_FALSE(journal.failed());
  std::remove(path.c_str());
}

TEST(CheckpointJournal, NonJournalFileRefusedAndLeftIntact) {
  // A typo'd --checkpoint path (say, the --json report) must never be
  // truncated or overwritten — with or without a trailing newline.
  for (const std::string& precious :
       {std::string("{\"meta\": \"not a journal\"}\n"),
        std::string("precious data, no newline")}) {
    const std::string path = temp_path("ck_notajournal.txt");
    write_file(path, precious);
    EXPECT_THROW(CheckpointJournal(path).open(7, 4, 2), CheckpointError);
    EXPECT_EQ(read_file(path), precious) << "file must be left untouched";
    std::remove(path.c_str());
  }
}

// --- On-disk formats, pinned byte for byte. The journal record and the
// JSON row are derived from kResultFields; existing journals and reports
// use exactly these bytes, so any drift in the table (order, names,
// encodings) fails here.

SimResult distinct_result() {
  SimResult r;
  r.offered = 0.1;  // not exact in binary: exercises %a and %.17g
  r.accepted = 0.25;
  r.avg_latency = 123.5;
  r.avg_hops = 3.125;
  r.request_latency = 100.75;
  r.reply_latency = 22.5;
  r.latency_p50 = 96.0;
  r.latency_p99 = 480.0;
  r.latency_max = 4503599627370497.0;  // 2^52 + 1: integral, full mantissa
  r.consumed_packets = 1234567;
  r.deadlock = true;
  r.cycles = 30000;
  return r;
}

TEST(OnDiskFormat, JournalRecordLineIsPinned) {
  const std::string path = temp_path("ck_format.journal");
  std::remove(path.c_str());
  {
    CheckpointJournal journal(path);
    journal.open(7, 4, 2);
    journal.append(3, 1, distinct_result());
  }
  EXPECT_EQ(read_file(path),
            journal_line("flexnet-checkpoint v2 fp=0000000000000007 "
                         "points=4 seeds=2") +
                journal_line("R 3 1 0x1.999999999999ap-4 0x1p-2 0x1.eep+6 "
                             "0x1.9p+1 0x1.93p+6 0x1.68p+4 0x1.8p+6 "
                             "0x1.ep+8 0x1.0000000000001p+52 1234567 1 "
                             "30000"));

  const JournalContents contents = read_journal(path);
  ASSERT_EQ(contents.records.size(), 1u);
  EXPECT_EQ(contents.records[0].point, 3u);
  EXPECT_EQ(contents.records[0].seed, 1);
  EXPECT_TRUE(result_bits_equal(contents.records[0].result,
                                distinct_result()));
  EXPECT_TRUE(identical(contents.records[0].result, distinct_result()));
  std::remove(path.c_str());
}

TEST(OnDiskFormat, JsonReportRowIsPinned) {
  SweepResult sweep;
  sweep.label = "s";
  sweep.rows.push_back(SweepRow{0.7, distinct_result()});
  JsonReport report;
  report.add_sweep("t", {sweep}, 1.0);
  const std::string row =
      R"({"load": 0.69999999999999996, "offered": 0.10000000000000001, )"
      R"("accepted": 0.25, "latency": 123.5, "hops": 3.125, )"
      R"("request_latency": 100.75, "reply_latency": 22.5, )"
      R"("latency_p50": 96, "latency_p99": 480, )"
      R"("latency_max": 4503599627370497, "consumed_packets": 1234567, )"
      R"("cycles": 30000, "deadlock": true})";
  EXPECT_NE(report.to_json().find("\n        " + row + "]}"),
            std::string::npos)
      << report.to_json();
}

TEST(OnDiskFormat, BitEqualityCoversEveryField) {
  const SimResult base = distinct_result();
  const std::vector<void (*)(SimResult&)> perturb = {
      // One ulp is a difference.
      [](SimResult& r) { r.offered = std::nextafter(r.offered, 1.0); },
      [](SimResult& r) { r.accepted = std::nextafter(r.accepted, 0.0); },
      [](SimResult& r) { r.avg_latency += 1; },
      [](SimResult& r) { r.avg_hops += 1; },
      [](SimResult& r) { r.request_latency += 1; },
      [](SimResult& r) { r.reply_latency += 1; },
      [](SimResult& r) { r.latency_p50 += 1; },
      [](SimResult& r) { r.latency_p99 += 1; },
      [](SimResult& r) { r.latency_max += 1; },
      [](SimResult& r) { r.consumed_packets += 1; },
      [](SimResult& r) { r.deadlock = false; },
      [](SimResult& r) { r.cycles += 1; },
  };
  ASSERT_EQ(perturb.size(), kResultFieldCount);
  EXPECT_TRUE(result_bits_equal(base, base));
  for (std::size_t i = 0; i < perturb.size(); ++i) {
    SimResult changed = base;
    perturb[i](changed);
    EXPECT_FALSE(result_bits_equal(base, changed)) << "field " << i;
  }
}

TEST(OnDiskFormat, DefaultCanonicalConfigIsPinned) {
  EXPECT_EQ(SimConfig{}.canonical(),
            "topology=dragonfly;df_p=2;df_a=4;df_h=2;sf_p=2;sf_q=5;"
            "vcs=2/1;policy=baseline;vc_selection=jsq;"
            "local_buffer=32;global_buffer=256;injection_buffer=256;"
            "output_buffer=32;local_port_capacity=0;global_port_capacity=0;"
            "buffer_org=static;damq_private_fraction=0x1.8p-1;speedup=2;"
            "alloc_iters=2;pipeline_latency=5;injection_vcs=3;"
            "local_latency=10;global_latency=100;routing=min;pb_per_vc=0;"
            "mincred=0;threshold=3;flow_control=packet;buffer_mgmt=credit;"
            "traffic=uniform;reactive=0;load=0x1p-1;"
            "burst_length=0x1.4p+2;adv_offset=1;reply_queue=8;"
            "packet_size=8;sim_domains=1;warmup=10000;measure=20000;seed=1;"
            "watchdog=20000;");
}

TEST(OnDiskFormat, JournalWithAnotherFingerprintIsRefused) {
  // A journal in the current record format whose header fingerprints a
  // different grid (here, a build whose canonical() rendered the config
  // differently) is refused, never reused.
  const std::string path = temp_path("ck_old_fp.journal");
  write_file(path,
             journal_line("flexnet-checkpoint v2 fp=098ce792f4a78fa9 "
                          "points=4 seeds=2") +
                 journal_line("R 0 0 0x1.25d4c3b2a1908p-1 "
                              "0x1.28acf13579bep-1 0x1.2a6a08585c4a3p+7 "
                              "0x1.29f8a2f9dd25p+1 0x1.2a6a08585c4a3p+7 "
                              "0x0p+0 0x1.5f556d3bf050bp+7 "
                              "0x1.db731db074843p+7 0x1.dcp+7 1388 0 400"));
  const std::uint64_t fp = grid_fingerprint(tiny_series(), kLoads, kSeeds);
  ASSERT_NE(fp, 0x098ce792f4a78fa9ull);
  try {
    CheckpointJournal(path).open(fp, 4, kSeeds);
    FAIL() << "a journal for another grid must not open";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("does not match this sweep grid"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointFingerprint, SensitiveToEveryGridComponent) {
  const auto series = tiny_series();
  const std::uint64_t base = grid_fingerprint(series, kLoads, kSeeds);
  EXPECT_EQ(base, grid_fingerprint(series, kLoads, kSeeds))
      << "fingerprint must be stable across calls";

  EXPECT_NE(base, grid_fingerprint(series, kLoads, kSeeds + 1));
  EXPECT_NE(base, grid_fingerprint(series, {0.2, 0.5}, kSeeds));

  auto relabeled = series;
  relabeled[0].label = "renamed";
  EXPECT_NE(base, grid_fingerprint(relabeled, kLoads, kSeeds));

  auto reconfigured = series;
  reconfigured[1].config.vcs = "3";
  EXPECT_NE(base, grid_fingerprint(reconfigured, kLoads, kSeeds));

  auto reseeded = series;
  reseeded[0].config.seed = 99;
  EXPECT_NE(base, grid_fingerprint(reseeded, kLoads, kSeeds));
}

// --- Resume equivalence with real simulations.

class CheckpointResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    series_ = new std::vector<ExperimentSeries>(tiny_series());
    baseline_ = new std::vector<SweepResult>(
        SweepRunner(1).run(*series_, kLoads, kSeeds));
    // A full checkpointed run to harvest complete journal bytes from.
    const std::string path = temp_path("ck_full.journal");
    std::remove(path.c_str());
    SweepRunner runner(1);
    runner.set_checkpoint(path);
    const auto rows = runner.run(*series_, kLoads, kSeeds);
    expect_identical_sweeps(*baseline_, rows, "checkpointed full run");
    full_journal_ = new std::string(read_file(path));
    std::remove(path.c_str());
  }

  static void TearDownTestSuite() {
    delete series_;
    delete baseline_;
    delete full_journal_;
  }

  /// Truncates the journal to `bytes`, resumes with `jobs` workers, and
  /// checks the rows match the uninterrupted baseline bit for bit.
  void resume_from_prefix(std::size_t bytes, int jobs) {
    const std::string path = temp_path("ck_resume.journal");
    write_file(path, full_journal_->substr(0, bytes));
    SweepRunner runner(jobs);
    runner.set_checkpoint(path);
    const auto rows = runner.run(*series_, kLoads, kSeeds);
    expect_identical_sweeps(
        *baseline_, rows,
        "resume from " + std::to_string(bytes) + " bytes at " +
            std::to_string(jobs) + " workers");
    std::remove(path.c_str());
  }

  static std::vector<ExperimentSeries>* series_;
  static std::vector<SweepResult>* baseline_;
  static std::string* full_journal_;
};

std::vector<ExperimentSeries>* CheckpointResumeTest::series_ = nullptr;
std::vector<SweepResult>* CheckpointResumeTest::baseline_ = nullptr;
std::string* CheckpointResumeTest::full_journal_ = nullptr;

TEST_F(CheckpointResumeTest, JournalHoldsHeaderPlusOneRecordPerJob) {
  const std::size_t lines =
      static_cast<std::size_t>(
          std::count(full_journal_->begin(), full_journal_->end(), '\n'));
  EXPECT_EQ(lines, 1 + series_->size() * kLoads.size() * kSeeds);
}

TEST_F(CheckpointResumeTest, ResumeAtJobBoundariesBitIdentical) {
  const std::size_t total_lines = 1 + series_->size() * kLoads.size() * kSeeds;
  // Header only (fresh restart), a partial prefix, and all-but-one job.
  for (const int lines :
       {1, 3, static_cast<int>(total_lines) - 1,
        static_cast<int>(total_lines)}) {
    for (const int jobs : {1, 4})
      resume_from_prefix(line_boundary(*full_journal_, lines), jobs);
  }
}

TEST_F(CheckpointResumeTest, ResumeMidRecordBitIdentical) {
  // Cuts that land inside a record — a crash during a journal write. The
  // torn record's job re-runs; everything before it is reused.
  for (const std::size_t cut :
       {line_boundary(*full_journal_, 2) + 7, full_journal_->size() / 3,
        full_journal_->size() - 5}) {
    ASSERT_NE((*full_journal_)[cut - 1], '\n') << "cut must be mid-record";
    for (const int jobs : {1, 4}) resume_from_prefix(cut, jobs);
  }
}

TEST_F(CheckpointResumeTest, CompleteJournalResumesWithoutNewRecords) {
  const std::string path = temp_path("ck_noop.journal");
  write_file(path, *full_journal_);
  SweepRunner runner(4);
  runner.set_checkpoint(path);
  const auto rows = runner.run(*series_, kLoads, kSeeds);
  expect_identical_sweeps(*baseline_, rows, "complete-journal resume");
  EXPECT_EQ(read_file(path), *full_journal_)
      << "a fully-journaled sweep must not simulate or append anything";
  std::remove(path.c_str());
}

TEST_F(CheckpointResumeTest, ChangedGridOrConfigRejectedNotReused) {
  const std::string path = temp_path("ck_reject.journal");
  write_file(path, *full_journal_);

  // Changed load grid.
  {
    SweepRunner runner(1);
    runner.set_checkpoint(path);
    EXPECT_THROW(runner.run(*series_, {0.2, 0.5}, kSeeds), CheckpointError);
  }
  // Changed seed count.
  {
    SweepRunner runner(1);
    runner.set_checkpoint(path);
    EXPECT_THROW(runner.run(*series_, kLoads, kSeeds + 1), CheckpointError);
  }
  // Changed simulation config (different VC arrangement).
  {
    auto changed = *series_;
    changed[0].config.vcs = "3";
    SweepRunner runner(4);
    runner.set_checkpoint(path);
    EXPECT_THROW(runner.run(changed, kLoads, kSeeds), CheckpointError);
  }
  // The journal survives rejection untouched and still resumes its grid.
  EXPECT_EQ(read_file(path), *full_journal_);
  SweepRunner runner(1);
  runner.set_checkpoint(path);
  expect_identical_sweeps(*baseline_,
                          runner.run(*series_, kLoads, kSeeds),
                          "post-rejection resume");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flexnet
