// The determinism scan: results are bit-deterministic only while the
// simulation sources stay free of nondeterminism, and this test checks that
// mechanically on every ctest run. It scans src/ of a tree for
//
//   - unordered_map/unordered_set, rand()/srand()/std::random_device and
//     wall-clock reads (time(), std::chrono, clock_gettime, gettimeofday)
//     outside src/runner/ and src/telemetry/;
//   - std::map/std::set keyed on a pointer (address order varies run to
//     run), outside the same two directories;
//   - thread primitives (thread, mutex, condition_variable, atomic)
//     anywhere under src/sim/: a simulation runs on one thread.
//
// The scan is textual on sources whose comments and literal contents are
// blanked, not a C++ parse; #include lines are not uses. A finding is
// suppressed at its site with `// flexnet-lint: allow(L3)` on the same line
// or the line above, and the README's suppression policy asks for a
// justification beside it. The fixture trees under tests/lint_fixtures/ pin
// what the scan finds; the live tree must hold no finding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace flexnet {
namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;  ///< root-relative path
  int line = 0;      ///< 1-based
  std::string message;
};

struct ScanResult {
  std::vector<Finding> findings;  ///< sorted by file, line, message
  int files = 0;                  ///< source files scanned
  int suppressed = 0;             ///< findings an allow(L3) annotation hid
};

/// Blanks comments and string/char literal *contents* (quotes stay) with
/// spaces, keeping every byte offset and newline so line numbers computed
/// on the scrub match the original file.
std::string scrub(const std::string& text) {
  std::string out = text;
  enum State { kCode, kLine, kBlock, kStr, kChar } state = kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case kCode:
        if (c == '/' && (next == '/' || next == '*')) {
          state = next == '/' ? kLine : kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = kStr;
        } else if (c == '\'') {
          state = kChar;
        }
        break;
      case kLine:
        if (c == '\n')
          state = kCode;
        else
          out[i] = ' ';
        break;
      case kBlock:
        if (c == '*' && next == '/') {
          state = kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kStr:
      case kChar: {
        const char quote = state == kStr ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == quote) {
          state = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Finds `word` with identifier boundaries in `text` from `from` on.
std::size_t find_word(const std::string& text, const std::string& word,
                      std::size_t from) {
  std::size_t pos = from;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const std::size_t end = pos + word.size();
    if ((pos == 0 || !ident_char(text[pos - 1])) &&
        (end >= text.size() || !ident_char(text[end])))
      return pos;
    ++pos;
  }
  return std::string::npos;
}

/// One source file under scan: its scrubbed text, line index and the lines
/// an allow(L3) annotation covers.
class SourceScan {
 public:
  SourceScan(std::string rel, const std::string& text, ScanResult* out)
      : rel_(std::move(rel)), scrubbed_(scrub(text)), out_(out) {
    line_starts_.push_back(0);
    for (std::size_t i = 0; i < text.size(); ++i)
      if (text[i] == '\n') line_starts_.push_back(i + 1);
    // Annotations live in comments, which the scrub blanks: read them from
    // the raw text. One covers its own line and the next, so it works both
    // trailing a statement and on a line of its own above one.
    static const std::string kTag = "flexnet-lint:";
    for (std::size_t pos = text.find(kTag); pos != std::string::npos;
         pos = text.find(kTag, pos + kTag.size())) {
      std::size_t p = pos + kTag.size();
      while (p < text.size() && text[p] == ' ') ++p;
      if (text.compare(p, 6, "allow(") != 0) continue;
      const std::size_t close = text.find(')', p);
      if (close == std::string::npos) continue;
      std::string rules = text.substr(p + 6, close - p - 6);
      std::replace(rules.begin(), rules.end(), ',', ' ');
      std::istringstream in(rules);
      for (std::string rule; in >> rule;) {
        if (rule != "L3") continue;
        allowed_lines_.insert(line_of(pos));
        allowed_lines_.insert(line_of(pos) + 1);
      }
    }
  }

  /// Every code mention of `word` outside an #include line.
  void ban_word(const std::string& word, const std::string& message) {
    for (std::size_t pos = find_word(scrubbed_, word, 0);
         pos != std::string::npos;
         pos = find_word(scrubbed_, word, pos + word.size())) {
      const std::size_t bol = scrubbed_.rfind('\n', pos) + 1;
      const std::size_t first = scrubbed_.find_first_not_of(" \t", bol);
      if (first == std::string::npos || scrubbed_[first] != '#')
        report(pos, message);
    }
  }

  /// `container<K*, ...>`: a pointer key orders by address.
  void ban_pointer_keys(const std::string& container) {
    for (std::size_t pos = find_word(scrubbed_, container, 0);
         pos != std::string::npos;
         pos = find_word(scrubbed_, container, pos + container.size())) {
      std::size_t i = pos + container.size();
      while (i < scrubbed_.size() &&
             std::isspace(static_cast<unsigned char>(scrubbed_[i])) != 0)
        ++i;
      if (i >= scrubbed_.size() || scrubbed_[i] != '<') continue;
      int depth = 1;
      bool pointer_key = false;
      for (std::size_t j = i + 1; j < scrubbed_.size() && depth > 0; ++j) {
        const char c = scrubbed_[j];
        if (c == '<') ++depth;
        if (c == '>') --depth;
        if (c == ',' && depth == 1) break;  // end of the key type
        if (c == '*' && depth == 1) pointer_key = true;
      }
      if (pointer_key)
        report(pos, container +
                        " keyed on a pointer — iteration order is the "
                        "allocator's, not the program's; key on a stable id "
                        "(PacketId, RouterId, index)");
    }
  }

 private:
  int line_of(std::size_t offset) const {
    return static_cast<int>(std::upper_bound(line_starts_.begin(),
                                             line_starts_.end(), offset) -
                            line_starts_.begin());
  }

  void report(std::size_t offset, const std::string& message) {
    const int line = line_of(offset);
    if (allowed_lines_.count(line) > 0)
      ++out_->suppressed;
    else
      out_->findings.push_back({rel_, line, message});
  }

  std::string rel_;
  std::string scrubbed_;
  std::vector<std::size_t> line_starts_;
  std::set<int> allowed_lines_;
  ScanResult* out_;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Scans every .cpp/.hpp/.h under `root`/src.
ScanResult scan_tree(const fs::path& root) {
  static const char* const kWallClock =
      "wall-clock read in a hot path — simulation state may only depend on "
      "the cycle counter and the seeded RNG";
  static const char* const kUnordered =
      " in a hot path — iteration order is unspecified and hash-seed "
      "dependent; use a sorted or flat container (allow(L3) only with a "
      "lookup-only justification)";
  static const std::pair<std::string, std::string> kBanned[] = {
      {"unordered_map", std::string("unordered_map") + kUnordered},
      {"unordered_set", std::string("unordered_set") + kUnordered},
      {"random_device",
       "std::random_device draws entropy from the OS — results would differ "
       "run to run; seed a DeterministicRng from SimConfig::seed"},
      {"rand", "rand() is hidden global state outside the seeded RNG"},
      {"srand", "srand() is hidden global state outside the seeded RNG"},
      {"time", kWallClock},
      {"gettimeofday", kWallClock},
      {"clock_gettime", kWallClock},
      {"chrono",
       "std::chrono in a hot path — wall time is allowed only in src/runner/ "
       "and src/telemetry/"},
  };
  static const char* const kThreadWords[] = {"thread", "mutex",
                                             "condition_variable", "atomic"};

  ScanResult result;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    const std::string ext = entry.path().extension().string();
    if (!entry.is_regular_file() ||
        (ext != ".cpp" && ext != ".hpp" && ext != ".h"))
      continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string rel = fs::relative(entry.path(), root).generic_string();
    ++result.files;

    SourceScan scan(rel, text.str(), &result);
    if (!starts_with(rel, "src/runner/") &&
        !starts_with(rel, "src/telemetry/")) {
      for (const auto& [word, message] : kBanned) scan.ban_word(word, message);
      scan.ban_pointer_keys("std::map");
      scan.ban_pointer_keys("std::set");
    }
    if (starts_with(rel, "src/sim/")) {
      for (const char* word : kThreadWords)
        scan.ban_word(word, std::string("std::") + word +
                                " is banned in the simulation core — a "
                                "simulation runs on one thread and per-cycle "
                                "state must be scheduling-independent; run "
                                "jobs in parallel from src/runner/");
    }
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.message) <
                     std::tie(b.file, b.line, b.message);
            });
  return result;
}

ScanResult scan_fixture(const std::string& name) {
  return scan_tree(fs::path(FLEXNET_SOURCE_DIR) / "tests" / "lint_fixtures" /
                   name);
}

/// file:line: [L3] message, one finding a line.
std::string render(const ScanResult& r) {
  std::string out;
  for (const Finding& f : r.findings)
    out += f.file + ":" + std::to_string(f.line) + ": [L3] " + f.message + "\n";
  return out;
}

std::vector<int> lines_in(const ScanResult& r, const std::string& file) {
  std::vector<int> lines;
  for (const Finding& f : r.findings) {
    EXPECT_EQ(f.file, file) << render(r);
    lines.push_back(f.line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// The fixture corpus.

TEST(DeterminismScan, FlagsEachBannedSourceAtItsLine) {
  const ScanResult r = scan_fixture("l3_broken");
  EXPECT_EQ(r.files, 1);
  // unordered_map, rand(), time() and a pointer-keyed std::map; the
  // #include lines above them are not uses.
  EXPECT_EQ(lines_in(r, "src/sim/hot_path.cpp"),
            (std::vector<int>{15, 21, 23, 25}))
      << render(r);
  EXPECT_NE(render(r).find("rand()"), std::string::npos) << render(r);
  EXPECT_NE(render(r).find("std::map keyed on a pointer"), std::string::npos)
      << render(r);
}

TEST(DeterminismScan, FlagsThreadPrimitivesInTheSimulationCore) {
  const ScanResult r = scan_fixture("l3_threads_broken");
  EXPECT_EQ(lines_in(r, "src/sim/stepper.cpp"), (std::vector<int>{8, 12}))
      << render(r);
  EXPECT_NE(render(r).find("banned in the simulation core"),
            std::string::npos)
      << render(r);
}

TEST(DeterminismScan, CleanTreesHoldNoFinding) {
  // Id-keyed maps and cycle counters under src/sim/; wall time and thread
  // primitives under src/runner/.
  for (const char* name : {"l3_clean", "l3_threads_clean"}) {
    const ScanResult r = scan_fixture(name);
    EXPECT_GT(r.files, 0) << name;
    EXPECT_TRUE(r.findings.empty()) << name << "\n" << render(r);
    EXPECT_EQ(r.suppressed, 0) << name;
  }
}

TEST(DeterminismScan, AllowAnnotationSuppressesAndIsCounted) {
  const ScanResult r = scan_fixture("l3_allowed");
  EXPECT_TRUE(r.findings.empty()) << render(r);
  EXPECT_EQ(r.suppressed, 1);
}

// ---------------------------------------------------------------------------
// The reason the scan exists: the shipped tree holds the contract.

TEST(DeterminismScan, LiveTreeHoldsNoFinding) {
  const ScanResult r = scan_tree(FLEXNET_SOURCE_DIR);
  EXPECT_GT(r.files, 50);
  EXPECT_TRUE(r.findings.empty()) << render(r);
}

}  // namespace
}  // namespace flexnet
