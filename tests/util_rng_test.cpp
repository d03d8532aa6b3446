#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "src/util/rng.h"

namespace essat::util {
namespace {

// The mixer behind seeding, stream derivation and the link models' keyed
// draws. The first two are SplitMix64's published outputs for state 0; an
// edit to the function moves every stream of every trial, and fails here.
TEST(SplitMix64, OutputsPinned) {
  static_assert(splitmix64(0) == 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(splitmix64(~0ULL), 0xe4d971771b652c20ULL);
}

// Stream derivation through that mixer: a trial's channel stream
// (master.fork(5) of seed 1) keeps its seed.
TEST(SplitMix64, ForkSeedPinned) {
  EXPECT_EQ(Rng{1}.fork(5).seed(), 1145760708026774789ULL);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1'000'000) != b.uniform_int(0, 1'000'000)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(Rng, ForkIsIndependentOfConsumption) {
  Rng a{7};
  Rng fork_before = a.fork(3);
  a.uniform(0.0, 1.0);  // consume from the parent
  Rng fork_after = a.fork(3);
  // Forks derive from the seed, not the stream position.
  EXPECT_EQ(fork_before.uniform_int(0, 1 << 30), fork_after.uniform_int(0, 1 << 30));
}

TEST(Rng, ForkStreamsDiffer) {
  Rng a{7};
  Rng s1 = a.fork(1);
  Rng s2 = a.fork(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (s1.uniform_int(0, 1 << 30) != s2.uniform_int(0, 1 << 30)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(Rng, UniformRange) {
  Rng r{99};
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r{99};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);  // all of 0..4 hit
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(Rng, UniformTimeWithinRange) {
  Rng r{5};
  const Time lo = Time::milliseconds(10);
  const Time hi = Time::milliseconds(20);
  for (int i = 0; i < 500; ++i) {
    const Time t = r.uniform_time(lo, hi);
    EXPECT_GE(t, lo);
    EXPECT_LT(t, hi);
  }
}

TEST(Rng, UniformTimeDegenerateRange) {
  Rng r{5};
  EXPECT_EQ(r.uniform_time(Time::seconds(1), Time::seconds(1)), Time::seconds(1));
}

TEST(Rng, ExponentialMean) {
  Rng r{11};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

// A zero spread is reachable from config (cluster_sigma_m = 0), but
// std::normal_distribution requires stddev > 0.
TEST(Rng, NormalZeroStddevReturnsMeanWithSameEngineDraws) {
  Rng zero{21};
  Rng spread{21};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(zero.normal(3.5, 0.0), 3.5);
    (void)spread.normal(3.5, 2.0);
  }
  // Both consumed the engine identically, so the streams stay in lockstep.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zero.uniform_int(0, 1 << 30), spread.uniform_int(0, 1 << 30));
  }
}

TEST(Rng, NormalRejectsNegativeOrNanStddev) {
  Rng r{5};
  EXPECT_THROW(r.normal(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(r.normal(0.0, std::nan("")), std::invalid_argument);
}

TEST(Rng, BernoulliProbability) {
  Rng r{13};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

}  // namespace
}  // namespace essat::util
