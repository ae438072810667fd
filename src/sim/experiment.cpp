#include "sim/experiment.hpp"

#include <algorithm>
#include <cstdio>

namespace flexnet {

double SweepResult::max_accepted() const {
  // Deadlocked points are excluded: their (surviving-seed) partial
  // throughput must not be reported as the configuration's maximum.
  double best = 0.0;
  for (const auto& row : rows)
    if (!row.result.deadlock) best = std::max(best, row.result.accepted);
  return best;
}

std::vector<double> load_points(double lo, double hi, int count) {
  std::vector<double> loads;
  for (int i = 0; i < count; ++i) {
    loads.push_back(count == 1 ? hi
                               : lo + (hi - lo) * i / (count - 1));
  }
  return loads;
}

void print_sweep_table(const std::string& title,
                       const std::vector<SweepResult>& sweeps) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-8s", "load");
  for (const auto& s : sweeps)
    std::printf(" | %-28s", s.label.c_str());
  std::printf("\n%-8s", "");
  for (std::size_t i = 0; i < sweeps.size(); ++i)
    std::printf(" | %-13s %-14s", "accepted", "latency");
  std::printf("\n");
  if (sweeps.empty()) return;
  for (std::size_t r = 0; r < sweeps.front().rows.size(); ++r) {
    std::printf("%-8.3f", sweeps.front().rows[r].load);
    for (const auto& s : sweeps) {
      const SimResult& res = s.rows[r].result;
      if (res.deadlock) {
        std::printf(" | %-13s %-14s", "DEADLOCK", "-");
      } else {
        std::printf(" | %-13.4f %-14.1f", res.accepted, res.avg_latency);
      }
    }
    std::printf("\n");
  }
}

void print_throughput_summary(const std::string& title,
                              const std::vector<SweepResult>& sweeps) {
  std::printf("\n== %s : maximum throughput ==\n", title.c_str());
  const double base = sweeps.empty() ? 0.0 : sweeps.front().max_accepted();
  for (const auto& s : sweeps) {
    const double acc = s.max_accepted();
    std::printf("  %-32s %7.4f phits/node/cycle  (%+.1f%% vs %s)\n",
                s.label.c_str(), acc,
                base > 0 ? 100.0 * (acc / base - 1.0) : 0.0,
                sweeps.front().label.c_str());
  }
}

}  // namespace flexnet
