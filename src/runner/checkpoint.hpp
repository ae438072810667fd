// Checkpoint/resume journal for paper-scale sweeps: as each (series, load,
// seed) job of a SweepRunner grid completes, its SimResult is appended to
// an append-only journal file, one self-delimiting CRC-protected record per
// job. Re-running the same grid with the same journal pre-fills the
// completed slots and only submits the remaining jobs; because aggregation
// stays the seed-ordered slot reduction, a resumed sweep is bit-identical
// to an uninterrupted one for any worker count.
//
// Journal format (text, one record per '\n'-terminated line, every line
// ending in an FNV-1a checksum of the preceding bytes):
//
//   flexnet-checkpoint v2 fp=<16-hex> points=<N> seeds=<K> <crc>
//   R <point> <seed> <field>... <crc>
//
// A record carries one field per kResultFields entry (sim/simulator.hpp),
// in table order. Doubles are rendered as C hexfloats (%a) so reloaded
// results are bit-exact; integers are decimal and flags 0/1. The header fingerprints the full grid — every SimConfig field
// (SimConfig::canonical), series labels, exact load values, and seed count.
// A journal whose header does not match the grid being run is a hard error
// (CheckpointError), never silent reuse of stale results. A torn trailing
// record (crash mid-write) is detected by its missing newline or failed
// checksum, truncated away, and re-run; corruption anywhere else is an
// error. Appends are thread-safe, flushed to the kernel one record at a
// time and fsync'd in batches of kFsyncBatch.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace flexnet {

class TraceWriter;

/// FNV-1a 64-bit over `data` — the journal's record checksum and the
/// fingerprint hash. Stable across platforms and runs by construction.
std::uint64_t fnv1a64(const char* data, std::size_t size,
                      std::uint64_t basis = 14695981039346656037ull);

/// Stable fingerprint of a sweep grid: series labels + canonical configs +
/// exact load values + seed count. Equal fingerprints mean every job of
/// the grid is identical.
std::uint64_t grid_fingerprint(const std::vector<ExperimentSeries>& series,
                               const std::vector<double>& loads, int seeds);

/// Unrecoverable journal problem: fingerprint/shape mismatch with the grid
/// being run, corruption before the trailing record, or an unwritable path.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The I/O flavor of CheckpointError: the grid and journal agree, but the
/// filesystem failed us (unwritable path, lost appends). Distinguished so
/// CLIs can exit with the transient I/O code (exit_codes.hpp) — an
/// orchestrator retries these, while a plain CheckpointError (fingerprint
/// mismatch, corruption) repeats forever and must not burn retries.
class CheckpointIoError : public CheckpointError {
 public:
  explicit CheckpointIoError(const std::string& what)
      : CheckpointError(what) {}
};

/// One journaled job result.
struct CheckpointRecord {
  std::size_t point = 0;  ///< series_index * loads.size() + load_index
  int seed = 0;           ///< seed index within the point
  SimResult result;
};

/// Bitwise equality of two results — every double compared by bit pattern
/// (so -0.0 != 0.0 and equal NaN payloads match), integers and flags
/// exactly. The merge's definition of "the same record".
bool result_bits_equal(const SimResult& a, const SimResult& b);

/// A journal file parsed read-only: the grid identity its header declares
/// plus every intact record. `torn_tail` reports a trailing record cut by
/// a crash mid-write; the record is discarded but — unlike
/// CheckpointJournal::open — the file is never modified.
struct JournalContents {
  std::uint64_t fingerprint = 0;
  std::size_t points = 0;
  int seeds = 0;
  bool torn_tail = false;
  std::vector<CheckpointRecord> records;
};

/// Read-only parse of the journal at `path`, the merge-side counterpart of
/// CheckpointJournal::open: same line/checksum format, same tolerance for
/// a torn trailing record, but no expected identity (the header's own
/// declaration is returned for the caller to compare) and no file
/// mutation. Unreadable, empty, corrupt-before-the-tail, or non-journal
/// files throw CheckpointError.
JournalContents read_journal(const std::string& path);

/// One shard journal feeding a merge, tagged with a display name (its
/// path) for error messages.
struct ShardJournal {
  std::string name;
  JournalContents contents;
};

/// Merges M shard journals of one sweep grid into a single record stream,
/// sorted by (point, seed):
///  - every input must declare the same (fingerprint, points, seeds) —
///    a mismatch (different suite, config, loads, or seed count) is a
///    CheckpointError naming both files;
///  - duplicate records for the same (point, seed) with bit-identical
///    results dedupe silently (overlapping shard ranges, a re-merged
///    journal fed back in);
///  - duplicates with *different* results are a CheckpointError naming the
///    offending (point, seed) and both source journals — two shards that
///    disagree were not runs of the same grid, and guessing would
///    silently corrupt the report.
/// Coverage is not required: merging a partial shard set yields a partial
/// record stream (callers decide whether missing jobs are an error).
std::vector<CheckpointRecord> merge_journals(
    const std::vector<ShardJournal>& shards);

class CheckpointJournal {
 public:
  /// Records fsync'd after this many appends (and on flush/close).
  static constexpr int kFsyncBatch = 8;

  explicit CheckpointJournal(std::string path) : path_(std::move(path)) {}
  ~CheckpointJournal() { close(); }

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Opens the journal for the grid identified by (fingerprint, points,
  /// seeds). An existing journal is validated against that identity
  /// (mismatch -> CheckpointError) and its complete records returned; a
  /// torn trailing record is truncated away so subsequent appends start at
  /// a clean line boundary. A missing or empty file gets a fresh header.
  /// The journal is left open for append().
  std::vector<CheckpointRecord> open(std::uint64_t fingerprint,
                                     std::size_t points, int seeds);

  /// Appends one job result and flushes it to the kernel, so the file
  /// grows once per finished job. Thread-safe. An I/O failure (a write,
  /// flush, fsync or close that fails) does not throw: it is reported to
  /// stderr once, sets failed() and makes further appends no-ops, so the
  /// sweep still finishes its jobs and SweepRunner::run fails afterwards
  /// (restart from the last good checkpoint). An fsync batch's trace span
  /// lands on `track`, the calling worker's (run_jobs).
  void append(std::size_t point, int seed, const SimResult& result,
              int track = 0);

  /// Flushes buffered records to the OS and fsyncs.
  void flush();

  void close();

  /// Emits journal I/O spans (open / fsync batches / close) into `trace`
  /// (telemetry/trace.hpp). Call before open(); nullptr (the default)
  /// disables. The writer must outlive this journal.
  void set_trace(TraceWriter* trace) { trace_ = trace; }

  const std::string& path() const { return path_; }
  bool failed() const { return failed_; }

 private:
  void write_line(const std::string& body);  // appends " <crc>\n"
  void flush_locked(int track);              // requires mu_ held
  void fail_locked(const char* op);          // sets failed_, warns once

  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mu_;
  int unsynced_ = 0;
  bool failed_ = false;
  TraceWriter* trace_ = nullptr;
};

}  // namespace flexnet
