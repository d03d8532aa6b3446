#include <gtest/gtest.h>

#include <cmath>

#include "src/util/stats.h"

namespace essat::util {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci_halfwidth(), 0.0);
}

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(TCritical, KnownEntries) {
  EXPECT_NEAR(t_critical(2), 6.314, 1e-3);   // df = 1
  EXPECT_NEAR(t_critical(5), 2.132, 1e-3);   // df = 4 (paper's 5 runs)
  EXPECT_NEAR(t_critical(31), 1.697, 1e-3);  // df = 30
  EXPECT_NEAR(t_critical(1000), 1.645, 1e-3);
  EXPECT_DOUBLE_EQ(t_critical(1), 0.0);
}

TEST(CiHalfwidth, FiveRuns) {
  RunningStat s;
  for (double v : {10.0, 11.0, 9.0, 10.5, 9.5}) s.add(v);
  const double expected = 2.132 * s.stddev() / std::sqrt(5.0);
  EXPECT_NEAR(s.ci_halfwidth(), expected, 1e-9);
}

TEST(Percentile, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 95.0), 7.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
}

TEST(Percentile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
}

TEST(Percentile, ClampsOutOfRange) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 150.0), 2.0);
}

}  // namespace
}  // namespace essat::util
