// Fork-sweep equivalence: a variant run forked from the shared scenario
// prefix is bit-identical to a from-scratch run of the same variant — the
// whole point of materializing the workload lazily at the setup boundary.
#include <gtest/gtest.h>

#include <unistd.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/fork_sweep.h"
#include "src/harness/scenario.h"
#include "src/snap/metrics_codec.h"

namespace essat::exp {
namespace {

using util::Time;

harness::ScenarioConfig small_base() {
  harness::ScenarioConfig c;
  c.deployment.num_nodes = 12;
  c.deployment.area_m = 250.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 250.0;
  c.workload.query_start_window = Time::seconds(1);
  c.setup_duration = Time::seconds(2);
  c.measure_duration = Time::seconds(4);
  c.latency_grace = Time::seconds(1);
  c.seed = 11;
  return c;
}

std::vector<harness::WorkloadSpec> rate_variants(
    const harness::ScenarioConfig& base) {
  std::vector<harness::WorkloadSpec> variants;
  for (const double rate : {0.5, 1.0, 2.0, 4.0}) {
    harness::WorkloadSpec w = base.workload;
    w.base_rate_hz = rate;
    variants.push_back(w);
  }
  harness::WorkloadSpec extra = base.workload;
  extra.queries_per_class = 2;
  extra.extra_queries.push_back(
      query::Query{net::kNoQuery, Time::seconds(2), Time::seconds(4), 0});
  variants.push_back(extra);
  return variants;
}

TEST(ForkSweep, VariantsBitIdenticalToStraightRuns) {
  const harness::ScenarioConfig base = small_base();
  const std::vector<harness::WorkloadSpec> variants = rate_variants(base);
  const std::vector<harness::RunMetrics> forked =
      run_fork_sweep(base, variants, 2);  // batch < variants: exercises drain
  ASSERT_EQ(forked.size(), variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    harness::ScenarioConfig straight = base;
    straight.workload = variants[i];
    EXPECT_EQ(snap::run_metrics_to_bytes(forked[i]),
              snap::run_metrics_to_bytes(harness::run_scenario(straight)));
  }
}

TEST(ForkSweep, ProtocolsShareThePrefixMachinery) {
  for (const harness::Protocol p :
       {harness::Protocol::kDtsSs, harness::Protocol::kPsm}) {
    harness::ScenarioConfig base = small_base();
    base.protocol = p;
    harness::WorkloadSpec w = base.workload;
    w.base_rate_hz = 2.0;
    const auto forked = run_fork_sweep(base, {w}, 0);
    ASSERT_EQ(forked.size(), 1u);
    harness::ScenarioConfig straight = base;
    straight.workload = w;
    EXPECT_EQ(snap::run_metrics_to_bytes(forked[0]),
              snap::run_metrics_to_bytes(harness::run_scenario(straight)))
        << base.protocol.name;
  }
}

TEST(ForkSweep, EmptyVariantListIsEmptyResult) {
  EXPECT_TRUE(run_fork_sweep(small_base(), {}).empty());
}

TEST(ForkSweep, RejectsChangedStartWindow) {
  const harness::ScenarioConfig base = small_base();
  harness::WorkloadSpec w = base.workload;
  w.query_start_window = Time::seconds(3);
  EXPECT_THROW((void)run_fork_sweep(base, {w}), std::invalid_argument);
}

// A zero rate has no query period, so variant 0's run throws at the setup
// boundary inside its child. The sweep must fail in the parent, naming the
// variant; a child that unwound into this test would run it a second time.
TEST(ForkSweep, ThrowingVariantFailsInParentOnly) {
  int marker[2];
  ASSERT_EQ(::pipe(marker), 0);
  const pid_t parent = ::getpid();
  const harness::ScenarioConfig base = small_base();
  harness::WorkloadSpec broken = base.workload;
  broken.base_rate_hz = 0.0;
  std::string error;
  try {
    (void)run_fork_sweep(base, {broken, base.workload}, 1);
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (::getpid() != parent) {
    (void)!::write(marker[1], "x", 1);
    ::_exit(0);
  }
  ::close(marker[1]);
  char byte = 0;
  EXPECT_EQ(::read(marker[0], &byte, 1), 0) << "a child returned to the caller";
  ::close(marker[0]);
  EXPECT_NE(error.find("variant 0"), std::string::npos) << error;
}

}  // namespace
}  // namespace essat::exp
