// Declarative scenario suites: an experiment grid as a JSON data file.
// Every figure the project reproduces ships as one suite per panel under
// examples/suites/, run by flexnet_run (or split across processes by
// flexnet_orchestrate and joined by flexnet_merge).
//
// A suite file describes one sweep — named series (config overrides using
// exactly the SimConfig::apply keys), a load grid, and a seed count:
//
//   {
//     "title": "Fig 9: VC selection @ 100% load",
//     "description": "optional free text",
//     "base":   {"reactive": true, "traffic": "uniform", "routing": "min"},
//     "series": [
//       {"label": "Baseline 2/1+2/1",
//        "overrides": {"policy": "baseline", "vcs": "2/1+2/1"}},
//       ...
//     ],
//     "loads": [1.0],                                  // explicit list, or
//     "loads": {"from": 0.05, "to": 1.0, "count": 20}, // an even grid
//     "seeds": 5                                       // optional (1)
//   }
//
// Override values may be JSON strings, numbers, or booleans; they are
// applied through SimConfig::apply, so a suite override and the equivalent
// command-line "key=value" are the same operation. Unknown keys (base,
// override, or top-level) are parse errors, and materialize() validates
// every series against the component registries — an unknown component
// name fails with the series label and the list of registered names.
//
// Execution order of overrides: caller defaults (SimConfig{} for the
// tools) -> suite "base" -> caller extras (e.g. flexnet_run's command
// line) -> per-series overrides. Scale is a key like any other
// (paper_scale=1, or df_p/df_a/df_h), as are warmup= and measure=.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "sim/experiment.hpp"

namespace flexnet {

/// Malformed or invalid suite document (parse or validation failure).
class SuiteError : public std::runtime_error {
 public:
  explicit SuiteError(const std::string& what) : std::runtime_error(what) {}
};

struct SuiteSeries {
  std::string label;
  Options overrides;
};

/// Comma-joined SimConfig::known_keys(), shared by every "unknown config
/// key" diagnostic (suite files and the flexnet_run command line alike).
const std::string& known_config_keys_list();

struct SuiteSpec {
  std::string title;
  std::string description;
  Options base;
  std::vector<SuiteSeries> series;
  std::vector<double> loads;
  int seeds = 0;  ///< 0 = not specified; callers use seeds_or()

  /// Parses and structurally validates a suite document: required fields
  /// present, labels unique, loads positive and non-empty, every override
  /// key in SimConfig::known_keys(). Throws SuiteError with `origin`
  /// (e.g. the file path) prefixed to every message.
  static SuiteSpec parse(const std::string& json_text,
                         const std::string& origin = "suite");

  /// Reads `path` and parses it (I/O failure is a SuiteError too).
  static SuiteSpec load(const std::string& path);

  /// Loads one of the suite files shipped under examples/suites/ by bare
  /// filename (e.g. "fig9_vc_selection.json"). The directory is resolved
  /// from the build-time FLEXNET_SUITE_DIR definition, falling back to the
  /// relative "examples/suites". The single resolver for tests.
  static SuiteSpec load_shipped(const std::string& filename);

  int seeds_or(int fallback) const { return seeds > 0 ? seeds : fallback; }

  /// Builds the experiment grid: for each series, `defaults` + base +
  /// `extra` (optional, e.g. CLI overrides) + the series overrides, then
  /// validate_config() against the registries. A validation failure is
  /// rethrown as SuiteError naming the offending series label.
  std::vector<ExperimentSeries> materialize(const SimConfig& defaults,
                                            const Options* extra = nullptr)
      const;
};

/// A suite materialized exactly as `flexnet_run` executes it: SimConfig{}
/// + suite base + `extra` CLI overrides + per-series overrides, with the
/// seed count resolved (1 when the suite names none) and the checkpoint
/// grid fingerprint computed.
struct MaterializedSuite {
  SuiteSpec spec;
  std::vector<ExperimentSeries> grid;
  int seeds = 0;
  std::uint64_t fingerprint = 0;  ///< grid_fingerprint(grid, loads, seeds)
};

/// Loads `path` and materializes it from SimConfig{}. The single
/// grid constructor shared by `flexnet_run` (which executes the grid) and
/// `flexnet_merge` (which validates shard journals against the same
/// fingerprint and aggregates them) — sharing it keeps the two tools'
/// grids identical by construction, which is what makes a merged report
/// bit-identical to a single-process run.
MaterializedSuite materialize_for_run(const std::string& path,
                                      const Options* extra = nullptr);

}  // namespace flexnet
