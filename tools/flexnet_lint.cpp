// flexnet_lint: the project-invariant static checker. The determinism
// contract this repo's results rest on (ROADMAP standing constraints) is
// enforced here mechanically instead of by reviewer vigilance:
//
//   L3  determinism     banned nondeterminism sources in src/ hot paths
//                       (everything outside src/runner/ and
//                       src/telemetry/): unordered_map/unordered_set,
//                       rand()/srand()/std::random_device, wall-clock
//                       reads (time(), std::chrono, clock_gettime, ...),
//                       and pointer-keyed std::map/std::set; thread
//                       primitives anywhere under src/sim/
//   L4  registry        a TU defining a component (class deriving from
//                       Topology/RoutingAlgorithm/TrafficPattern/VcPolicy)
//                       must hold a FLEXNET_REGISTER_* block
//
// Rules are numbered from L3: schema completeness (every SimConfig field
// in the config key table, every SimResult field in kResultFields) is
// checked by the compiler through the arity pins beside those tables, and
// that every registered component is reached by a golden suite is checked
// by tests/test_core_equivalence.cpp walking the registries themselves.
// That telemetry hooks are read-only is checked by the compiler too: they
// are const member functions of Network (src/sim/network.hpp).
//
// Diagnostics are file:line so CI output is clickable; `--json FILE`
// additionally writes a machine-readable report. A finding can be
// suppressed at its site with
//     // flexnet-lint: allow(L3)            (same line or the line above)
//     // flexnet-lint: allow-file(L4)       (anywhere in the file)
// — suppression policy (README "Static analysis & sanitizers") requires a
// justification in the surrounding comment.
//
// The checker is textual on comment/string-scrubbed sources, not a real
// C++ parse: rules are written so false *acceptance* degrades them into
// weaker checks while false positives stay near zero on project idiom —
// and the escape hatch covers the rest. The fixture corpus under
// tests/lint_fixtures/ pins each rule's behavior.
//
// Exit codes mirror src/runner/exit_codes.hpp: 0 clean, 1 violations,
// 2 usage/config error, 4 report I/O failure.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runner/exit_codes.hpp"
#include "runner/json_parser.hpp"

namespace fs = std::filesystem;

namespace flexnet::lint {
namespace {

// ---------------------------------------------------------------------------
// Diagnostics.

struct Diagnostic {
  std::string file;  ///< root-relative path
  int line = 0;      ///< 1-based
  std::string rule;  ///< "L3" or "L4"
  std::string message;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"L3", "no nondeterminism in src/ hot paths (unordered containers, "
           "rand/time/random_device/chrono, pointer-keyed map/set; thread "
           "primitives under src/sim/)"},
    {"L4", "component TUs carry FLEXNET_REGISTER_*"},
};

// ---------------------------------------------------------------------------
// Source loading and scrubbing.

struct SourceFile {
  std::string rel;       ///< path relative to the lint root
  std::string text;      ///< raw bytes
  std::string scrubbed;  ///< comments and literal contents blanked
  std::vector<std::size_t> line_starts;  ///< byte offset of each line
  /// Rules allowed per 1-based line (from same-line/previous-line
  /// `flexnet-lint: allow(...)` annotations) and file-wide allows.
  std::map<int, std::set<std::string>> line_allows;
  std::set<std::string> file_allows;
};

/// Blanks comments and string/char literal *contents* (quotes stay, so
/// literal boundaries remain visible) with spaces, preserving every byte
/// offset and newline so line numbers computed on the scrub match the
/// original file.
std::string scrub(const std::string& text) {
  std::string out = text;
  enum State { kCode, kLine, kBlock, kStr, kChar } state = kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case kCode:
        if (c == '/' && next == '/') {
          state = kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = kBlock;
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
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::size_t> index_lines(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  return starts;
}

int line_of(const SourceFile& f, std::size_t offset) {
  const auto it = std::upper_bound(f.line_starts.begin(), f.line_starts.end(),
                                   offset);
  return static_cast<int>(it - f.line_starts.begin());
}

/// Parses `flexnet-lint: allow(L3,L4)` / `allow-file(L4)` annotations out
/// of the raw text (they live in comments, which the scrub blanks).
void collect_allows(SourceFile* f) {
  static const std::string kTag = "flexnet-lint:";
  std::size_t pos = 0;
  while ((pos = f->text.find(kTag, pos)) != std::string::npos) {
    std::size_t p = pos + kTag.size();
    while (p < f->text.size() && f->text[p] == ' ') ++p;
    const bool file_wide = f->text.compare(p, 11, "allow-file(") == 0;
    const bool line_wide = !file_wide && f->text.compare(p, 6, "allow(") == 0;
    if (file_wide || line_wide) {
      const std::size_t open = f->text.find('(', p);
      const std::size_t close = f->text.find(')', open);
      if (open != std::string::npos && close != std::string::npos) {
        std::string rules = f->text.substr(open + 1, close - open - 1);
        std::replace(rules.begin(), rules.end(), ',', ' ');
        std::istringstream in(rules);
        std::string rule;
        const int line = line_of(*f, pos);
        while (in >> rule) {
          if (file_wide) {
            f->file_allows.insert(rule);
          } else {
            // The annotation covers its own line and the next line, so it
            // works both trailing a statement and on a line of its own
            // above one.
            f->line_allows[line].insert(rule);
            f->line_allows[line + 1].insert(rule);
          }
        }
      }
    }
    pos += kTag.size();
  }
}

bool load_file(const fs::path& root, const fs::path& path, SourceFile* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out->rel = fs::relative(path, root).generic_string();
  out->text = buf.str();
  out->scrubbed = scrub(out->text);
  out->line_starts = index_lines(out->text);
  collect_allows(out);
  return true;
}

// ---------------------------------------------------------------------------
// Small text utilities over scrubbed sources.

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Finds `word` with identifier boundaries in `text` starting at `from`.
std::size_t find_word(const std::string& text, const std::string& word,
                      std::size_t from = 0) {
  std::size_t pos = from;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// The lint driver.

class Linter {
 public:
  Linter(fs::path root, std::set<std::string> rules)
      : root_(std::move(root)), rules_(std::move(rules)) {}

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  int files_scanned() const { return files_scanned_; }
  int suppressed() const { return suppressed_; }
  const std::vector<std::string>& warnings() const { return warnings_; }

  void run() {
    load_tree();
    if (enabled("L3")) check_determinism();
    if (enabled("L4")) check_registry();
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return std::tie(a.file, a.line, a.rule, a.message) <
                       std::tie(b.file, b.line, b.rule, b.message);
              });
  }

 private:
  bool enabled(const std::string& rule) const {
    return rules_.empty() || rules_.count(rule) > 0;
  }

  void warn(const std::string& msg) { warnings_.push_back(msg); }

  void report(const SourceFile& f, int line, const std::string& rule,
              const std::string& message) {
    if (f.file_allows.count(rule) > 0) {
      ++suppressed_;
      return;
    }
    const auto it = f.line_allows.find(line);
    if (it != f.line_allows.end() && it->second.count(rule) > 0) {
      ++suppressed_;
      return;
    }
    diags_.push_back({f.rel, line, rule, message});
  }

  void load_tree() {
    const fs::path src = root_ / "src";
    if (fs::exists(src)) {
      for (const auto& entry : fs::recursive_directory_iterator(src)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
        SourceFile f;
        if (load_file(root_, entry.path(), &f)) {
          ++files_scanned_;
          files_.push_back(std::move(f));
        } else {
          warn("cannot read " + entry.path().string());
        }
      }
    } else {
      warn("no src/ directory under " + root_.string() +
           " — most rules have nothing to scan");
    }
    std::sort(files_.begin(), files_.end(),
              [](const SourceFile& a, const SourceFile& b) {
                return a.rel < b.rel;
              });
  }

  const SourceFile* file(const std::string& rel) const {
    for (const SourceFile& f : files_)
      if (f.rel == rel) return &f;
    return nullptr;
  }

  // --- L3 -----------------------------------------------------------------
  static bool hot_path(const std::string& rel) {
    return rel.rfind("src/", 0) == 0 &&
           rel.rfind("src/runner/", 0) != 0 &&
           rel.rfind("src/telemetry/", 0) != 0;
  }

  void scan_pattern(const SourceFile& f, const std::string& word,
                    const std::string& message) {
    std::size_t pos = 0;
    while ((pos = find_word(f.scrubbed, word, pos)) != std::string::npos) {
      // The #include line itself is not a use; only flag code mentions so
      // a justified allow(L3) on the use site is the single annotation.
      const std::size_t bol = f.scrubbed.rfind('\n', pos) + 1;
      const std::size_t hash = f.scrubbed.find_first_not_of(" \t", bol);
      if (hash == std::string::npos || f.scrubbed[hash] != '#')
        report(f, line_of(f, pos), "L3", message);
      pos += word.size();
    }
  }

  /// Flags `std::map<K*, ...>` / `std::set<K*>`: pointer keys order by
  /// address, which varies run to run.
  void scan_pointer_keys(const SourceFile& f, const std::string& container) {
    std::size_t pos = 0;
    while ((pos = find_word(f.scrubbed, container, pos)) != std::string::npos) {
      std::size_t i = pos + container.size();
      while (i < f.scrubbed.size() &&
             std::isspace(static_cast<unsigned char>(f.scrubbed[i])) != 0) {
        ++i;
      }
      if (i < f.scrubbed.size() && f.scrubbed[i] == '<') {
        int depth = 1;
        bool pointer_key = false;
        for (std::size_t j = i + 1; j < f.scrubbed.size() && depth > 0; ++j) {
          const char c = f.scrubbed[j];
          if (c == '<') ++depth;
          if (c == '>') --depth;
          if (c == ',' && depth == 1) break;  // end of the key type
          if (c == '*' && depth == 1) pointer_key = true;
        }
        if (pointer_key)
          report(f, line_of(f, pos), "L3",
                 container + " keyed on a pointer — iteration order is the "
                             "allocator's, not the program's; key on a "
                             "stable id (PacketId, RouterId, index)");
      }
      pos += container.size();
    }
  }

  void check_determinism() {
    const struct {
      const char* word;
      const char* message;
    } banned[] = {
        {"unordered_map",
         "unordered_map in a hot path — iteration order is unspecified and "
         "hash-seed dependent; use a sorted or flat container (allow(L3) "
         "only with a lookup-only justification)"},
        {"unordered_set",
         "unordered_set in a hot path — iteration order is unspecified and "
         "hash-seed dependent; use a sorted or flat container (allow(L3) "
         "only with a lookup-only justification)"},
        {"random_device",
         "std::random_device draws entropy from the OS — results would "
         "differ run to run; seed a DeterministicRng from SimConfig::seed"},
        {"rand", "rand() is hidden global state outside the seeded RNG"},
        {"srand", "srand() is hidden global state outside the seeded RNG"},
        {"time",
         "wall-clock read in a hot path — simulation state may only depend "
         "on the cycle counter and the seeded RNG"},
        {"gettimeofday",
         "wall-clock read in a hot path — simulation state may only depend "
         "on the cycle counter and the seeded RNG"},
        {"clock_gettime",
         "wall-clock read in a hot path — simulation state may only depend "
         "on the cycle counter and the seeded RNG"},
        {"chrono",
         "std::chrono in a hot path — wall time is allowed only in "
         "src/runner/ and src/telemetry/"},
    };
    for (const SourceFile& f : files_) {
      if (!hot_path(f.rel)) continue;
      for (const auto& ban : banned) scan_pattern(f, ban.word, ban.message);
      scan_pointer_keys(f, "std::map");
      scan_pointer_keys(f, "std::set");
    }

    // Thread primitives in the simulation core. A simulation runs on one
    // thread; parallelism lives in src/runner/ (independent sweep jobs).
    // Under src/sim/ a thread primitive means simulation state can depend
    // on OS scheduling, which no seed pins.
    static const char* kThreadWords[] = {"thread", "mutex",
                                         "condition_variable", "atomic"};
    for (const SourceFile& f : files_) {
      if (f.rel.rfind("src/sim/", 0) != 0) continue;
      for (const char* word : kThreadWords) {
        scan_pattern(
            f, word,
            std::string("std::") + word +
                " is banned in the simulation core — a simulation runs on "
                "one thread and per-cycle state must be scheduling-"
                "independent; run jobs in parallel from src/runner/");
      }
    }
  }

  // --- L4 -----------------------------------------------------------------
  void check_registry() {
    // Component-defining TUs must register. A "component" is a class
    // deriving from one of the registry base types; its registering TU is
    // the .cpp it was declared in, or the paired .cpp of its header.
    static const char* kBases[] = {"Topology", "RoutingAlgorithm",
                                   "TrafficPattern", "VcPolicy"};
    for (const SourceFile& f : files_) {
      std::size_t pos = 0;
      while ((pos = f.scrubbed.find(": public", pos)) != std::string::npos) {
        std::size_t b = pos + std::strlen(": public");
        while (b < f.scrubbed.size() &&
               std::isspace(static_cast<unsigned char>(f.scrubbed[b])) != 0) {
          ++b;
        }
        std::size_t e = b;
        while (e < f.scrubbed.size() && ident_char(f.scrubbed[e])) ++e;
        const std::string base = f.scrubbed.substr(b, e - b);
        pos = e;
        if (std::find_if(std::begin(kBases), std::end(kBases),
                         [&](const char* k) { return base == k; }) ==
            std::end(kBases)) {
          continue;
        }
        // Self-declaration of the base class itself ("class Topology")
        // never reaches here since it derives from nothing in kBases.
        const std::string tu_rel =
            f.rel.size() > 4 && f.rel.compare(f.rel.size() - 4, 4, ".cpp") == 0
                ? f.rel
                : f.rel.substr(0, f.rel.rfind('.')) + ".cpp";
        const SourceFile* tu = file(tu_rel);
        const bool registered =
            tu != nullptr && tu->scrubbed.find("FLEXNET_REGISTER_") !=
                                 std::string::npos;
        if (!registered)
          report(f, line_of(f, pos), "L4",
                 "component deriving from " + base +
                     " has no FLEXNET_REGISTER_* block in " + tu_rel +
                     " — it is unreachable from suites and `flexnet_run "
                     "--list`");
      }
    }
  }

  fs::path root_;
  std::set<std::string> rules_;
  std::vector<SourceFile> files_;
  std::vector<Diagnostic> diags_;
  std::vector<std::string> warnings_;
  int files_scanned_ = 0;
  int suppressed_ = 0;
};

// ---------------------------------------------------------------------------
// CLI.

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: flexnet_lint [--root DIR] [--json FILE] [--rules L3,L4,...]\n"
      "                    [--list-rules] [--quiet]\n"
      "\n"
      "Checks the project invariants the determinism contract rests on\n"
      "(README \"Static analysis & sanitizers\"). Exit codes: 0 clean,\n"
      "1 violations found, 2 usage/config error, 4 report write failure.\n"
      "\n"
      "  --root DIR     tree to check (default: the configured source\n"
      "                 tree this binary was built from)\n"
      "  --json FILE    also write a machine-readable report\n"
      "  --rules LIST   comma-separated subset of rules to run\n"
      "  --list-rules   print the rule catalog and exit\n"
      "  --quiet        suppress per-violation stderr lines\n"
      "\n"
      "Suppress a finding at its site with a justified comment:\n"
      "  // deterministic: lookup only, never iterated\n"
      "  // flexnet-lint: allow(L3)\n");
}

}  // namespace
}  // namespace flexnet::lint

int main(int argc, char** argv) {
  using namespace flexnet::lint;
  namespace exit_code = flexnet::exit_code;

#ifdef FLEXNET_SOURCE_DIR
  std::string root = FLEXNET_SOURCE_DIR;
#else
  std::string root = ".";
#endif
  std::string json_path;
  std::set<std::string> rules;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(exit_code::kConfig);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return exit_code::kOk;
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules)
        std::printf("%s  %s\n", r.id, r.summary);
      return exit_code::kOk;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--root" || arg.rfind("--root=", 0) == 0) {
      root = value("--root");
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      json_path = value("--json");
    } else if (arg == "--rules" || arg.rfind("--rules=", 0) == 0) {
      std::string list = value("--rules");
      std::replace(list.begin(), list.end(), ',', ' ');
      std::istringstream in(list);
      std::string rule;
      while (in >> rule) {
        if (std::find_if(std::begin(kRules), std::end(kRules),
                         [&](const RuleInfo& r) { return rule == r.id; }) ==
            std::end(kRules)) {
          std::fprintf(stderr,
                       "error: unknown rule '%s' — see --list-rules\n",
                       rule.c_str());
          return exit_code::kConfig;
        }
        rules.insert(rule);
      }
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      usage(stderr);
      return exit_code::kConfig;
    }
  }

  if (!fs::exists(root)) {
    std::fprintf(stderr, "error: lint root '%s' does not exist\n",
                 root.c_str());
    return exit_code::kConfig;
  }

  Linter linter{fs::path(root), rules};
  linter.run();

  for (const std::string& w : linter.warnings())
    std::fprintf(stderr, "flexnet_lint: warning: %s\n", w.c_str());
  if (!quiet) {
    for (const Diagnostic& d : linter.diagnostics())
      std::fprintf(stderr, "%s:%d: [%s] %s\n", d.file.c_str(), d.line,
                   d.rule.c_str(), d.message.c_str());
  }

  if (!json_path.empty()) {
    using flexnet::JsonValue;
    JsonValue doc = JsonValue::make_object();
    doc.set("tool", JsonValue::make_string("flexnet_lint"));
    doc.set("version", JsonValue::make_number(1));
    doc.set("root", JsonValue::make_string(root));
    JsonValue rule_list = JsonValue::make_array();
    for (const RuleInfo& r : kRules) {
      if (!rules.empty() && rules.count(r.id) == 0) continue;
      JsonValue entry = JsonValue::make_object();
      entry.set("id", JsonValue::make_string(r.id));
      entry.set("summary", JsonValue::make_string(r.summary));
      rule_list.array.push_back(std::move(entry));
    }
    doc.set("rules", std::move(rule_list));
    doc.set("files_scanned",
            JsonValue::make_number(linter.files_scanned()));
    doc.set("suppressed", JsonValue::make_number(linter.suppressed()));
    JsonValue violations = JsonValue::make_array();
    for (const Diagnostic& d : linter.diagnostics()) {
      JsonValue v = JsonValue::make_object();
      v.set("file", JsonValue::make_string(d.file));
      v.set("line", JsonValue::make_number(d.line));
      v.set("rule", JsonValue::make_string(d.rule));
      v.set("message", JsonValue::make_string(d.message));
      violations.array.push_back(std::move(v));
    }
    doc.set("violations", std::move(violations));
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << flexnet::json_serialize(doc, 0) << '\n';
    if (!out.flush()) {
      std::fprintf(stderr, "error: cannot write lint report to %s\n",
                   json_path.c_str());
      return exit_code::kIo;
    }
  }

  const std::size_t n = linter.diagnostics().size();
  std::string suppressed_note;
  if (linter.suppressed() > 0) {
    suppressed_note = " (" + std::to_string(linter.suppressed()) +
                      " suppressed by allow annotations)";
  }
  std::fprintf(stderr, "flexnet_lint: %zu file(s), %zu violation(s)%s\n",
               static_cast<std::size_t>(linter.files_scanned()), n,
               suppressed_note.c_str());
  return n == 0 ? exit_code::kOk : exit_code::kFailure;
}
