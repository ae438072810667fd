#include "runner/checkpoint.hpp"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "telemetry/trace.hpp"

namespace flexnet {

namespace {

// Journal I/O spans on the trace timeline (set_trace): pid 0 wall-clock
// track `track`. A null writer costs one branch.
TraceWriter::Span journal_span(TraceWriter* trace, const char* name,
                               int track) {
  if (trace == nullptr) return TraceWriter::Span();
  return trace->span("checkpoint", name, track);
}

}  // namespace

std::uint64_t fnv1a64(const char* data, std::size_t size,
                      std::uint64_t basis) {
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Splits a line on single spaces (the journal never emits empty fields).
std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    if (space == std::string::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return out;
}

/// True when `line` ends in a space-separated checksum matching the bytes
/// before it. The final field of every journal line is fnv1a64 of
/// everything preceding its separating space.
bool checksum_ok(const std::string& line) {
  const std::size_t last_space = line.rfind(' ');
  if (last_space == std::string::npos ||
      line.size() - last_space - 1 != 16) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const std::uint64_t stored =
      std::strtoull(line.c_str() + last_space + 1, &end, 16);
  if (errno != 0 || end != line.c_str() + line.size()) return false;
  return stored ==
         ::flexnet::fnv1a64(line.data(), last_space, 14695981039346656037ull);
}

std::string strip_checksum(const std::string& line) {
  return line.substr(0, line.rfind(' '));
}

bool parse_double(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && !s.empty();
}

bool parse_i64(const std::string& s, long long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(s.c_str(), &end, 10);
  return errno == 0 && end == s.c_str() + s.size() && !s.empty();
}

/// Parses one journal field into `out` by its type (the inverse of
/// append_field).
bool parse_field(const std::string& s, double* out) {
  return parse_double(s, out);
}

bool parse_field(const std::string& s, std::int64_t* out) {
  long long v = 0;
  if (!parse_i64(s, &v)) return false;
  *out = v;
  return true;
}

bool parse_field(const std::string& s, bool* out) {
  if (s != "0" && s != "1") return false;
  *out = s == "1";
  return true;
}

/// Appends one journal field: doubles as exact hexfloats, flags as 0/1.
void append_field(std::string* out, double v) { *out += hex_double(v); }
void append_field(std::string* out, std::int64_t v) {
  *out += std::to_string(v);
}
void append_field(std::string* out, bool v) { *out += v ? '1' : '0'; }

/// Parses a checksum-stripped "R ..." body; false on malformed fields.
bool parse_record_body(const std::string& body, CheckpointRecord* rec) {
  const std::vector<std::string> f = split_fields(body);
  if (f.size() != 3 + kResultFieldCount || f[0] != "R") return false;
  long long point = 0, seed = 0;
  if (!parse_i64(f[1], &point) || point < 0) return false;
  if (!parse_i64(f[2], &seed) || seed < 0) return false;
  SimResult r;
  std::size_t next = 3;
  bool ok = true;
  for_each_result_field([&](const auto& field) {
    ok = ok && parse_field(f[next++], &(r.*field.member));
  });
  if (!ok) return false;
  rec->point = static_cast<std::size_t>(point);
  rec->seed = static_cast<int>(seed);
  rec->result = r;
  return true;
}

std::string header_body(std::uint64_t fingerprint, std::size_t points,
                        int seeds) {
  std::ostringstream out;
  out << "flexnet-checkpoint v2 fp=" << hex_u64(fingerprint)
      << " points=" << points << " seeds=" << seeds;
  return out.str();
}

/// Parses a checksum-stripped header body back into the grid identity it
/// declares; false when the line is not a v2 checkpoint header. (v1 lacked
/// the latency percentile fields; scan_journal reports the version
/// mismatch explicitly rather than calling a v1 journal "not a journal".)
bool parse_header_body(const std::string& body, std::uint64_t* fp,
                       std::size_t* points, int* seeds) {
  const std::vector<std::string> f = split_fields(body);
  if (f.size() != 5 || f[0] != "flexnet-checkpoint" || f[1] != "v2")
    return false;
  if (f[2].rfind("fp=", 0) != 0 || f[3].rfind("points=", 0) != 0 ||
      f[4].rfind("seeds=", 0) != 0) {
    return false;
  }
  const std::string fp_hex = f[2].substr(3);
  if (fp_hex.size() != 16) return false;
  char* end = nullptr;
  errno = 0;
  *fp = std::strtoull(fp_hex.c_str(), &end, 16);
  if (errno != 0 || end != fp_hex.c_str() + fp_hex.size()) return false;
  // Bound before casting: a wrapped value would pass shape checks against
  // the wrong grid and misreport the records as corrupt.
  long long points_ll = 0, seeds_ll = 0;
  if (!parse_i64(f[3].substr(7), &points_ll) || points_ll < 0) return false;
  if (!parse_i64(f[4].substr(6), &seeds_ll) || seeds_ll < 1 ||
      seeds_ll > std::numeric_limits<int>::max()) {
    return false;
  }
  *points = static_cast<std::size_t>(points_ll);
  *seeds = static_cast<int>(seeds_ll);
  return true;
}

/// A journal's bytes scanned line by line: header identity, intact
/// records, the byte length of the intact prefix, and whether a torn
/// trailing record was discarded.
struct ScannedJournal {
  bool have_header = false;
  std::string header;  ///< checksum-stripped first line
  std::uint64_t fingerprint = 0;
  std::size_t points = 0;
  int seeds = 0;
  std::vector<CheckpointRecord> records;
  std::size_t valid_bytes = 0;
  bool torn_tail = false;
};

/// The shared scanning core of CheckpointJournal::open (read+truncate+
/// append path, `read_only` false) and read_journal (merge path,
/// `read_only` true — the error advice must not suggest deleting or
/// overwriting an input file that is merely being read). Checksums every
/// line; a damaged *trailing* line after a valid header is reported via
/// `torn_tail` (an interrupted write), damage anywhere else — including a
/// first line that is not a checkpoint header, i.e. some other file — is
/// a CheckpointError. Records are range-checked against the header's own
/// declared grid shape.
ScannedJournal scan_journal(const std::string& text, const std::string& path,
                            bool read_only) {
  ScannedJournal out;
  const auto not_a_journal = [&] {
    return CheckpointError(
        read_only
            ? "file " + path + " is not a checkpoint journal"
            : "existing file " + path +
                  " is not a checkpoint journal; refusing to overwrite "
                  "it — delete it or pass a different --checkpoint path");
  };
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool complete = nl != std::string::npos;
    const std::string line =
        text.substr(pos, complete ? nl - pos : std::string::npos);
    const bool last_line = !complete || nl + 1 >= text.size();

    if (!complete || !checksum_ok(line)) {
      // An intact journal can only be damaged at its very end (a write cut
      // short by a crash). A bad line anywhere earlier — including a bad
      // *first* line, which makes this some other file entirely (a typo'd
      // --checkpoint path must never destroy user data) — means the file
      // is not a journal: refuse to guess.
      if (last_line && out.have_header) {
        out.torn_tail = true;
        break;
      }
      if (!out.have_header) throw not_a_journal();
      throw CheckpointError("corrupt checkpoint journal (bad line " +
                            std::to_string(out.records.size() + 2) +
                            "): " + path);
    }

    const std::string body = strip_checksum(line);
    if (!out.have_header) {
      if (!parse_header_body(body, &out.fingerprint, &out.points,
                             &out.seeds)) {
        // A journal from an older record format must say so — "not a
        // journal" would send the user hunting for file corruption.
        if (body.rfind("flexnet-checkpoint ", 0) == 0) {
          throw CheckpointError(
              "checkpoint journal " + path +
              " uses an older record format (header \"" + body +
              "\"); this build writes v2 (with latency percentiles) — "
              "re-run the sweep with a fresh journal path");
        }
        throw not_a_journal();
      }
      out.header = body;
      out.have_header = true;
    } else {
      CheckpointRecord rec;
      if (!parse_record_body(body, &rec) || rec.point >= out.points ||
          rec.seed >= out.seeds) {
        throw CheckpointError("corrupt checkpoint record (line " +
                              std::to_string(out.records.size() + 2) +
                              "): " + path);
      }
      out.records.push_back(rec);
    }
    out.valid_bytes = nl + 1;
    pos = nl + 1;
  }
  return out;
}

}  // namespace

std::uint64_t grid_fingerprint(const std::vector<ExperimentSeries>& series,
                               const std::vector<double>& loads, int seeds) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const std::string& s) {
    h = ::flexnet::fnv1a64(s.data(), s.size() + 1, h);  // +1: '\0' delimiter
  };
  for (const auto& s : series) {
    mix(s.label);
    mix(s.config.canonical());
  }
  for (double load : loads) mix(hex_double(load));
  mix("seeds=" + std::to_string(seeds));
  return h;
}

std::vector<CheckpointRecord> CheckpointJournal::open(
    std::uint64_t fingerprint, std::size_t points, int seeds) {
  const TraceWriter::Span span = journal_span(trace_, "journal.open", 0);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr)
    throw CheckpointError("checkpoint journal already open: " + path_);

  const std::string expected_header = header_body(fingerprint, points, seeds);

  std::string text;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
  }

  ScannedJournal scan = scan_journal(text, path_, /*read_only=*/false);
  if (scan.have_header && scan.header != expected_header) {
    throw CheckpointError(
        "checkpoint journal " + path_ +
        " does not match this sweep grid (header \"" + scan.header +
        "\", expected \"" + expected_header +
        "\"); refusing to reuse results — delete the journal or fix "
        "the grid/config");
  }
  if (scan.torn_tail) {
    log_warn("checkpoint: torn trailing record in " + path_ +
             "; truncating and re-running the interrupted job");
  }

  if (scan.valid_bytes < text.size())
    std::filesystem::resize_file(path_, scan.valid_bytes);

  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr)
    throw CheckpointIoError("cannot open checkpoint journal for append: " +
                            path_);
  if (!scan.have_header) {
    write_line(expected_header);
    flush_locked(0);
  }
  return std::move(scan.records);
}

bool result_bits_equal(const SimResult& a, const SimResult& b) {
  bool equal = true;
  for_each_result_field([&](const auto& field) {
    const auto& x = a.*field.member;
    const auto& y = b.*field.member;
    equal = equal && std::memcmp(&x, &y, sizeof(x)) == 0;
  });
  return equal;
}

JournalContents read_journal(const std::string& path) {
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw CheckpointError("cannot read shard journal: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  ScannedJournal scan = scan_journal(text, path, /*read_only=*/true);
  if (!scan.have_header)
    throw CheckpointError("empty file " + path +
                          " is not a checkpoint journal");
  if (scan.torn_tail) {
    log_warn("checkpoint: torn trailing record in " + path +
             "; ignoring the interrupted job (the file is left untouched)");
  }
  JournalContents out;
  out.fingerprint = scan.fingerprint;
  out.points = scan.points;
  out.seeds = scan.seeds;
  out.torn_tail = scan.torn_tail;
  out.records = std::move(scan.records);
  return out;
}

std::vector<CheckpointRecord> merge_journals(
    const std::vector<ShardJournal>& shards) {
  if (shards.empty())
    throw CheckpointError("no shard journals to merge");
  const auto identity = [](const ShardJournal& s) {
    return s.name + " (fp=" + hex_u64(s.contents.fingerprint) +
           " points=" + std::to_string(s.contents.points) +
           " seeds=" + std::to_string(s.contents.seeds) + ")";
  };
  const JournalContents& first = shards.front().contents;
  for (const ShardJournal& s : shards) {
    if (s.contents.fingerprint != first.fingerprint ||
        s.contents.points != first.points ||
        s.contents.seeds != first.seeds) {
      throw CheckpointError(
          "shard journals disagree about the sweep grid: " +
          identity(shards.front()) + " vs " + identity(s) +
          " — every shard must run the identical suite, config, loads, "
          "and seed count");
    }
  }

  // Keyed occupancy: first writer of a (point, seed) key wins, later
  // bit-identical copies dedupe, later divergent copies are fatal.
  std::map<std::pair<std::size_t, int>,
           std::pair<const ShardJournal*, const CheckpointRecord*>>
      merged;
  for (const ShardJournal& s : shards) {
    for (const CheckpointRecord& rec : s.contents.records) {
      const auto key = std::make_pair(rec.point, rec.seed);
      const auto [it, inserted] = merged.emplace(
          key, std::make_pair(&s, &rec));
      if (!inserted &&
          !result_bits_equal(it->second.second->result, rec.result)) {
        throw CheckpointError(
            "conflicting results for point " + std::to_string(rec.point) +
            " seed " + std::to_string(rec.seed) + ": " +
            it->second.first->name + " and " + s.name +
            " journal different values for the same job — the shards are "
            "not from the same run; refusing to merge");
      }
    }
  }

  std::vector<CheckpointRecord> out;
  out.reserve(merged.size());
  for (const auto& [key, value] : merged) {
    (void)key;
    out.push_back(*value.second);
  }
  return out;
}

void CheckpointJournal::write_line(const std::string& body) {
  const std::string line =
      body + " " +
      hex_u64(fnv1a64(body.data(), body.size(), 14695981039346656037ull)) +
      "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
    fail_locked("write to");
}

void CheckpointJournal::fail_locked(const char* op) {
  if (failed_) return;  // warn once
  failed_ = true;
  log_warn("checkpoint: " + std::string(op) + " " + path_ + " failed (" +
           std::strerror(errno) + "); further progress will not be journaled");
}

void CheckpointJournal::append(std::size_t point, int seed,
                               const SimResult& r, int track) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr || failed_) return;
  std::string body = "R " + std::to_string(point) + ' ' + std::to_string(seed);
  for_each_result_field([&](const auto& field) {
    body += ' ';
    append_field(&body, r.*field.member);
  });
  write_line(body);
  // Each record goes to the kernel at once, so the file grows once per
  // finished job (the orchestrator's liveness signal); fsync stays batched.
  if (++unsynced_ >= kFsyncBatch)
    flush_locked(track);
  else if (std::fflush(file_) != 0)
    fail_locked("flush of");
}

void CheckpointJournal::flush_locked(int track) {
  if (file_ == nullptr) return;
  const TraceWriter::Span span = journal_span(trace_, "journal.fsync", track);
  if (std::fflush(file_) != 0) fail_locked("flush of");
  if (::fsync(::fileno(file_)) != 0) fail_locked("fsync of");
  unsynced_ = 0;
}

void CheckpointJournal::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked(0);
}

void CheckpointJournal::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  const TraceWriter::Span span = journal_span(trace_, "journal.close", 0);
  flush_locked(0);
  if (std::fclose(file_) != 0) fail_locked("close of");
  file_ = nullptr;
}

}  // namespace flexnet
