// flexnet_lint's own contract, pinned against the fixture corpus under
// tests/lint_fixtures/: each rule L3–L4 has at least one violating fixture
// (nonzero exit, file:line diagnostic naming the rule) and one clean
// fixture (exit 0), the `flexnet-lint: allow(RULE)` escape hatch
// suppresses without hiding the suppression count, the --json report
// parses and mirrors the stderr diagnostics, and — the point of the whole
// tool — the live tree passes at zero violations.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "runner/json_parser.hpp"

namespace flexnet {
namespace {

std::string lint_bin() { return std::string(FLEXNET_BIN_DIR) + "/flexnet_lint"; }

std::string fixture(const std::string& name) {
  return std::string(FLEXNET_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
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

CmdResult lint(const std::string& args) {
  return run_cmd(lint_bin() + " " + args);
}

// ---------------------------------------------------------------------------
// Per-rule fixtures: violating trees exit 1 with a file:line diagnostic
// tagged with the rule id; clean trees exit 0.

struct RuleCase {
  const char* rule;
  const char* broken;     ///< fixture directory expected to violate
  const char* clean;      ///< fixture directory expected to pass
  const char* fragment;   ///< substring the diagnostic must carry
  const char* site;       ///< file:line prefix of one expected finding
};

const RuleCase kRuleCases[] = {
    {"L3", "l3_broken", "l3_clean", "rand()", "src/sim/hot_path.cpp:21:"},
    // Thread primitives in the simulation core: banned everywhere under
    // src/sim/; parallelism lives in src/runner/.
    {"L3", "l3_threads_broken", "l3_threads_clean",
     "banned in the simulation core", "src/sim/stepper.cpp:8:"},
    {"L4", "l4_broken", "l4_clean", "no FLEXNET_REGISTER_",
     "src/routing/ghost.cpp:10:"},
};

TEST(FlexnetLint, ViolatingFixturesFailWithFileLineDiagnostics) {
  for (const RuleCase& c : kRuleCases) {
    const CmdResult r = lint("--root " + fixture(c.broken));
    EXPECT_EQ(r.exit_code, 1) << c.rule << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string("[") + c.rule + "]"),
              std::string::npos)
        << c.rule << "\n" << r.output;
    EXPECT_NE(r.output.find(c.fragment), std::string::npos)
        << c.rule << "\n" << r.output;
    EXPECT_NE(r.output.find(c.site), std::string::npos)
        << c.rule << " diagnostics must be file:line anchored\n" << r.output;
  }
}

TEST(FlexnetLint, CleanFixturesPass) {
  for (const RuleCase& c : kRuleCases) {
    const CmdResult r = lint("--root " + fixture(c.clean));
    EXPECT_EQ(r.exit_code, 0) << c.rule << "\n" << r.output;
    EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos)
        << c.rule << "\n" << r.output;
  }
}

TEST(FlexnetLint, RuleFilterRunsOnlySelectedRules) {
  // The L3-broken tree is clean under every other rule.
  const CmdResult r = lint("--root " + fixture("l3_broken") + " --rules L4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const CmdResult both =
      lint("--root " + fixture("l3_broken") + " --rules L3,L4");
  EXPECT_EQ(both.exit_code, 1) << both.output;
}

// ---------------------------------------------------------------------------
// Escape hatch.

TEST(FlexnetLint, AllowAnnotationSuppressesButIsCounted) {
  const CmdResult r = lint("--root " + fixture("l3_allowed"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("suppressed by allow annotations"),
            std::string::npos)
      << r.output;
}

TEST(FlexnetLint, AllowedFindingsStillCountedInJsonReport) {
  const std::string report = ::testing::TempDir() + "lint_allowed.json";
  std::remove(report.c_str());
  const CmdResult r =
      lint("--root " + fixture("l3_allowed") + " --json " + report);
  EXPECT_EQ(r.exit_code, 0) << r.output;

  std::FILE* f = std::fopen(report.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(text, &doc, &error)) << error;
  EXPECT_EQ(doc.find("suppressed")->number, 1.0);
  EXPECT_TRUE(doc.find("violations")->array.empty());
}

// ---------------------------------------------------------------------------
// JSON report.

TEST(FlexnetLint, JsonReportParsesAndMirrorsDiagnostics) {
  const std::string report = ::testing::TempDir() + "lint_report.json";
  std::remove(report.c_str());
  const CmdResult r =
      lint("--root " + fixture("l3_broken") + " --json " + report);
  EXPECT_EQ(r.exit_code, 1) << r.output;

  std::FILE* f = std::fopen(report.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(text, &doc, &error)) << error;
  EXPECT_EQ(doc.find("tool")->string, "flexnet_lint");
  ASSERT_TRUE(doc.has("violations"));
  const std::vector<JsonValue>& violations = doc.find("violations")->array;
  ASSERT_EQ(violations.size(), 4u);
  for (const JsonValue& v : violations) {
    EXPECT_EQ(v.find("file")->string, "src/sim/hot_path.cpp");
    EXPECT_GT(v.find("line")->number, 0.0);
    EXPECT_EQ(v.find("rule")->string, "L3");
    EXPECT_FALSE(v.find("message")->string.empty());
    // Every JSON violation also appeared as a file:line stderr line.
    const std::string anchor =
        v.find("file")->string + ":" +
        std::to_string(static_cast<int>(v.find("line")->number)) + ":";
    EXPECT_NE(r.output.find(anchor), std::string::npos) << anchor;
  }
}

// ---------------------------------------------------------------------------
// CLI contract.

TEST(FlexnetLint, ListRulesPrintsTheCatalog) {
  const CmdResult r = lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule : {"L3", "L4"})
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
  EXPECT_EQ(r.output.find("L5"), std::string::npos) << r.output;
}

TEST(FlexnetLint, UnknownRuleAndMissingRootAreUsageErrors) {
  EXPECT_EQ(lint("--rules L9").exit_code, 2);
  // Schema completeness and read-only telemetry hooks are the compiler's
  // job; there is no L1 or L5 rule.
  EXPECT_EQ(lint("--rules L1").exit_code, 2);
  EXPECT_EQ(lint("--rules L5").exit_code, 2);
  EXPECT_EQ(lint("--root /nonexistent/lint/root").exit_code, 2);
  EXPECT_EQ(lint("--frobnicate").exit_code, 2);
}

// ---------------------------------------------------------------------------
// The reason the tool exists: the shipped tree holds the invariants.

TEST(FlexnetLint, LiveTreePassesAtZeroViolations) {
  const CmdResult r = lint("--root " + std::string(FLEXNET_SOURCE_DIR));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(" 0 violation(s)"), std::string::npos) << r.output;
}

}  // namespace
}  // namespace flexnet
