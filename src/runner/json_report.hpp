// JSON sweep report: machine-readable record of the sweeps a run executes,
// emitted next to the console tables so downstream tooling (plotting,
// regression tracking, BENCH_*.json trajectories) can consume the exact
// numbers without scraping stdout. No external JSON dependency — the
// writer emits the (tiny) dialect the report needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace flexnet {

/// Escapes `s` for use inside a JSON string literal (quotes not included).
std::string json_escape(const std::string& s);

/// Renders a double as a JSON number with round-trip precision;
/// non-finite values become null (JSON has no NaN/inf).
std::string json_number(double v);

class JsonReport {
 public:
  /// Free-form metadata echoed under "meta" (config summary, jobs, scale,
  /// seeds...). Later sets of the same key overwrite.
  void set_meta(const std::string& key, const std::string& value);
  void set_meta(const std::string& key, std::int64_t value);
  void set_meta(const std::string& key, double value);

  /// Records one titled sweep (every series of a figure panel) plus the
  /// wall-clock seconds the sweep took end to end.
  void add_sweep(const std::string& title,
                 const std::vector<SweepResult>& sweeps, double wall_seconds);

  bool empty() const { return entries_.empty(); }

  /// The whole report as a JSON document:
  /// {"meta": {...}, "sweeps": [{"title", "wall_seconds", "series":
  ///   [{"label", "max_accepted", "rows": [{"load", <result fields>}]}]}]}
  /// where a row's result fields are the kResultFields entries
  /// (sim/simulator.hpp) under their JSON names.
  std::string to_json() const;

  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  struct MetaEntry {
    std::string key;
    std::string rendered;  // already valid JSON
  };
  struct SweepEntry {
    std::string title;
    double wall_seconds = 0.0;
    std::vector<SweepResult> sweeps;
  };

  void set_meta_rendered(const std::string& key, std::string rendered);

  std::vector<MetaEntry> meta_;
  std::vector<SweepEntry> entries_;
};

}  // namespace flexnet
