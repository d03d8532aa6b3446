// Acceptance checks for the city-scale sparse-state refactor: the sparse
// per-link statistics (open-addressed (src,dst) map in the channel) and
// the sparse MAC duplicate table must be *bit-identical* in behavior to
// the legacy dense arrays — byte-identical RunMetrics encodings (every
// field, per-node rows and the sleep histogram included) on every point of
// a protocol x topology x rate grid. Both storage thresholds are
// forced per run: 0 = always sparse, SIZE_MAX = always dense.
//
// The grid deliberately runs ETX routing over a shadowing channel: ETX
// reads the per-link statistics to pick parents, so a single transposed
// or lost (src,dst) counter changes tree shape and every downstream
// metric; lossy links force retransmissions, so the duplicate table takes
// real hits (a retry of a delivered frame must be suppressed identically
// under both layouts).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/net/link_model.h"
#include "src/snap/metrics_codec.h"

namespace essat::exp {
namespace {

using util::Time;

harness::ScenarioConfig lossy_etx_base() {
  harness::ScenarioConfig c;
  c.deployment.num_nodes = 12;
  c.deployment.area_m = 250.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 250.0;
  c.workload.base_rate_hz = 1.0;
  c.workload.query_start_window = Time::seconds(1);
  c.setup_duration = Time::seconds(2);
  c.measure_duration = Time::seconds(4);
  c.latency_grace = Time::seconds(1);
  // Gray-zone links + link-quality routing: exercises both sparse
  // structures on their hot paths (see file comment).
  c.channel_model.kind = net::LinkModelKind::kLogNormalShadowing;
  c.routing.policy = "etx";
  c.seed = 11;
  return c;
}

void force_storage(harness::ScenarioConfig& c, std::size_t threshold) {
  c.channel_params.dense_link_stats_below = threshold;
  c.mac_params.dense_dup_table_below = threshold;
}

TEST(SparseDenseEquivalence, IdenticalMetricsOnFullGrid) {
  auto run_grid = [](std::size_t threshold) {
    harness::ScenarioConfig base = lossy_etx_base();
    force_storage(base, threshold);
    std::vector<net::DeploymentSpec> shapes;
    for (net::TopologyKind kind :
         {net::TopologyKind::kUniform, net::TopologyKind::kGrid,
          net::TopologyKind::kClustered, net::TopologyKind::kCorridor}) {
      shapes.push_back(base.deployment);
      shapes.back().kind = kind;
    }
    SweepSpec spec(base);
    spec.runs(1)
        .axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kPsm})
        .axis_topology(shapes)
        .axis_rate({1.0, 2.0});
    SweepRunner::Options opts;
    opts.jobs = 4;
    return SweepRunner(opts).run(spec);
  };
  const auto sparse = run_grid(0);
  const auto dense = run_grid(SIZE_MAX);
  ASSERT_EQ(sparse.size(), 16u);
  ASSERT_EQ(dense.size(), 16u);
  for (std::size_t p = 0; p < sparse.size(); ++p) {
    SCOPED_TRACE(sparse[p].point.labels[0] + " / " + sparse[p].point.labels[1] +
                 " / " + sparse[p].point.labels[2]);
    EXPECT_EQ(snap::run_metrics_to_bytes(sparse[p].metrics.last_run),
              snap::run_metrics_to_bytes(dense[p].metrics.last_run));
  }
}

// The default threshold (1024) must itself be equivalent to both forced
// modes on a default-sized run — i.e. the threshold only selects storage,
// never behavior. Uses maintenance + a node death so dup-table state is
// also read on the repair path.
TEST(SparseDenseEquivalence, DefaultThresholdMatchesForcedModes) {
  auto run_one = [](std::size_t threshold) {
    harness::ScenarioConfig c = lossy_etx_base();
    force_storage(c, threshold);
    c.enable_maintenance = true;
    c.faults.churn.scheduled = {{3, Time::seconds(1)}};
    return harness::run_scenario(c);
  };
  const harness::RunMetrics sparse = run_one(0);
  const harness::RunMetrics dflt = run_one(1024);
  const harness::RunMetrics dense = run_one(SIZE_MAX);
  EXPECT_EQ(sparse.node_deaths, 1u);
  EXPECT_EQ(dflt.node_deaths, 1u);
  EXPECT_EQ(dense.node_deaths, 1u);
  EXPECT_EQ(snap::run_metrics_to_bytes(sparse),
            snap::run_metrics_to_bytes(dflt));
  EXPECT_EQ(snap::run_metrics_to_bytes(dflt),
            snap::run_metrics_to_bytes(dense));
}

}  // namespace
}  // namespace essat::exp
