// Experiment vocabulary shared by the sweep runner and its tools: a
// labeled configuration, the per-load rows a sweep produces, the load
// grid, and the console tables flexnet_run prints for every suite.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace flexnet {

/// One labeled configuration in a figure (e.g. "FlexVC 4/2VCs").
struct ExperimentSeries {
  std::string label;
  SimConfig config;
};

struct SweepRow {
  double load = 0.0;
  SimResult result;
};

struct SweepResult {
  std::string label;
  std::vector<SweepRow> rows;

  /// Maximum accepted load over the non-deadlocked points of the sweep
  /// (the paper's "maximum throughput" metric of Figs 6/9/11). A point
  /// whose aggregate is deadlock-marked never contributes, even though it
  /// may carry a partial surviving-seed average.
  double max_accepted() const;
};

/// Evenly spaced loads in [lo, hi].
std::vector<double> load_points(double lo, double hi, int count);

/// Prints a fixed-width table: one row per load, one column pair
/// (accepted, latency) per series. Matches the data of the paper's
/// latency+throughput figure panels.
void print_sweep_table(const std::string& title,
                       const std::vector<SweepResult>& sweeps);

/// Prints a one-line-per-series summary of maximum throughput (the bar
/// charts of Figs 6/9/11), with relative improvement over the first series.
void print_throughput_summary(const std::string& title,
                              const std::vector<SweepResult>& sweeps);

}  // namespace flexnet
