#include "src/util/stats.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace essat::util {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::ci_halfwidth(double level) const {
  if (n_ < 2) return 0.0;
  return t_critical(n_, level) * stddev() / std::sqrt(static_cast<double>(n_));
}

double t_critical(std::size_t n, double level) {
  if (n < 2) return 0.0;
  const std::size_t df = std::min<std::size_t>(n - 1, 30);
  // Two-sided critical values for df = 1..30.
  static constexpr std::array<double, 30> t90 = {
      6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
      1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
      1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697};
  static constexpr std::array<double, 30> t95 = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  static constexpr std::array<double, 30> t99 = {
      63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
      3.106,  3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
      2.831,  2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750};
  if (n > 31) {
    if (level >= 0.99) return 2.576;
    if (level >= 0.95) return 1.960;
    return 1.645;
  }
  if (level >= 0.99) return t99[df - 1];
  if (level >= 0.95) return t95[df - 1];
  return t90[df - 1];
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

}  // namespace essat::util
