// Streaming statistics and confidence intervals for experiment metrics.
#pragma once

#include <cstddef>
#include <vector>

namespace essat::util {

// Welford's online mean/variance. Numerically stable; O(1) space.
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  // Half-width of the two-sided 90% confidence interval (the paper's level,
  // §5) using the Student t distribution.
  double ci_halfwidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Critical value of the Student t distribution, two-sided at 90%, for n-1
// degrees of freedom. Tabulated for small n, normal approximation above 30.
double t_critical(std::size_t n);

// p-th percentile (0..100) by linear interpolation; `values` is copied and
// sorted internally. Returns 0 for an empty input.
double percentile(std::vector<double> values, double p);

}  // namespace essat::util
