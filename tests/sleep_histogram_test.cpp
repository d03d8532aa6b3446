#include <gtest/gtest.h>

#include "src/energy/sleep_histogram.h"

namespace essat::energy {
namespace {

TEST(Histogram, BinsValuesByRange) {
  SleepHistogram h;
  h.add(0.010);  // bin 0: [0, 25) ms
  h.add(0.024);  // bin 0
  h.add(0.026);  // bin 1: [25, 50) ms
  h.add(0.160);  // bin 6: [150, 175) ms
  EXPECT_EQ(h.num_bins(), 8u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(6), 1u);
  EXPECT_EQ(h.count(7), 0u);
}

// Both ends of the range: nothing lies below the first bin, so a zero-length
// sleep counts in bin 0; at and past the last edge (200 ms) sleeps overflow.
TEST(Histogram, UnderflowAndOverflow) {
  SleepHistogram h;
  h.add(0.0);
  h.add(0.199);  // bin 7: [175, 200) ms
  h.add(0.2);    // the last edge itself -> overflow
  h.add(3.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(7), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, TotalCountsEverything) {
  SleepHistogram h;
  for (double v : {0.0, 0.001, 0.05, 0.1, 0.175, 9.0}) h.add(v);
  EXPECT_EQ(h.total(), 6u);
}

TEST(Histogram, BinUpperEdgeLabels) {
  SleepHistogram h;
  EXPECT_DOUBLE_EQ(h.bin_upper_edge(0), 0.025);
  EXPECT_DOUBLE_EQ(h.bin_upper_edge(7), 0.2);
}

// The short count is what Fig. 8's fraction divides by the total: intervals
// strictly below the 2.5 ms break-even time.
TEST(Histogram, FractionBelowThreshold) {
  SleepHistogram h;
  h.add(0.0);
  h.add(0.002);
  h.add(0.0025);  // at the threshold: not short
  h.add(0.100);
  EXPECT_EQ(h.short_count(), 2u);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, MergeAddsCounts) {
  SleepHistogram a;
  SleepHistogram b;
  a.add(0.001);
  b.add(0.001);
  b.add(0.03);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(1), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_EQ(a.short_count(), 2u);
  EXPECT_EQ(a.total(), 4u);
}

}  // namespace
}  // namespace essat::energy
