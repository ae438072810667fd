// Streaming statistics accumulators used by the metrics subsystem.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace flexnet {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm, which is
/// numerically stable for the long measurement windows the simulator runs).
class Accumulator {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const Accumulator& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const auto n1 = static_cast<double>(count_);
    const auto n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    mean_ = (n1 * mean_ + n2 * other.mean_) / (n1 + n2);
    m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
  }

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  void reset() { *this = Accumulator(); }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Event counter normalized per node per cycle; the unit of every
/// throughput number in the paper (phits/node/cycle).
class RateMeter {
 public:
  void add(double amount) { total_ += amount; }
  void reset() { total_ = 0.0; }
  double total() const { return total_; }
  double rate(double nodes, double cycles) const {
    return (nodes > 0 && cycles > 0) ? total_ / (nodes * cycles) : 0.0;
  }

 private:
  double total_ = 0.0;
};

}  // namespace flexnet
