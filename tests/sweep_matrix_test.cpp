// Acceptance check for the pluggable-stack refactor: a protocol x
// deployment grid flows through SweepSpec/SweepRunner with no per-protocol
// or per-topology branching anywhere — the harness resolves both axes from
// their declarative specs (policy-table names, DeploymentSpec kinds).
#include <gtest/gtest.h>

#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/net/link_model.h"

namespace essat::exp {
namespace {

using util::Time;

harness::ScenarioConfig small_base() {
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
  c.seed = 7;
  return c;
}

TEST(SweepMatrix, ProtocolTimesTopologyGridRunsEndToEnd) {
  SweepSpec spec(small_base());
  std::vector<net::DeploymentSpec> shapes;
  for (net::TopologyKind kind :
       {net::TopologyKind::kUniform, net::TopologyKind::kGrid,
        net::TopologyKind::kClustered}) {
    shapes.push_back(spec.base().deployment);
    shapes.back().kind = kind;
  }
  spec.runs(1)
      .axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kPsm})
      .axis_topology(shapes);
  ASSERT_EQ(spec.num_points(), 6u);

  SweepRunner::Options opts;
  opts.jobs = 2;
  const auto results = SweepRunner(opts).run(spec);
  ASSERT_EQ(results.size(), 6u);

  for (const auto& r : results) {
    SCOPED_TRACE(r.point.labels[0] + " / " + r.point.labels[1]);
    EXPECT_GT(r.metrics.duty_cycle.mean(), 0.0);
    EXPECT_GT(r.metrics.last_run.tree_members, 3);
    EXPECT_GT(r.metrics.last_run.reports_sent, 0u);
  }
  // Row-major labels: protocol is the slow axis, topology the fast one.
  EXPECT_EQ(results[0].point.labels,
            (std::vector<std::string>{"DTS-SS", "uniform"}));
  EXPECT_EQ(results[1].point.labels,
            (std::vector<std::string>{"DTS-SS", "grid"}));
  EXPECT_EQ(results[5].point.labels,
            (std::vector<std::string>{"PSM", "clustered"}));
  // The deployment axis actually changed the simulated world (duty cycle
  // is continuous, so distinct geometries cannot coincide).
  EXPECT_NE(results[0].metrics.last_run.avg_duty_cycle,
            results[1].metrics.last_run.avg_duty_cycle);
}

// Loss determinism: the same seed and LinkModel produce bit-identical
// delivered()/dropped_by_model() whether the sweep runs on 1 worker or 8.
TEST(ChannelModelMatrix, LossyChannelsDeterministicAcrossJobCounts) {
  auto run_grid = [](int jobs) {
    std::vector<net::ChannelModelSpec> models(3);
    models[0].kind = net::LinkModelKind::kLogNormalShadowing;
    models[1].kind = net::LinkModelKind::kGilbertElliott;
    models[1].gilbert_base = net::LinkModelKind::kLogNormalShadowing;
    models[2].kind = net::LinkModelKind::kUnitDisc;
    models[2].prr_scale = 0.9;
    SweepSpec spec(small_base());
    spec.runs(2)
        .axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kPsm})
        .axis_channel(models);
    SweepRunner::Options opts;
    opts.jobs = jobs;
    return SweepRunner(opts).run(spec);
  };
  const auto serial = run_grid(1);
  const auto parallel = run_grid(8);
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(parallel.size(), 6u);
  EXPECT_EQ(serial[0].point.labels,
            (std::vector<std::string>{"DTS-SS", "shadowing"}));
  EXPECT_EQ(serial[2].point.labels,
            (std::vector<std::string>{"DTS-SS", "unit-disc@0.9"}));
  for (std::size_t p = 0; p < serial.size(); ++p) {
    SCOPED_TRACE(serial[p].point.labels[0] + " / " + serial[p].point.labels[1]);
    const harness::RunMetrics& a = serial[p].metrics.last_run;
    const harness::RunMetrics& b = parallel[p].metrics.last_run;
    EXPECT_EQ(a.channel_delivered, b.channel_delivered);
    EXPECT_EQ(a.channel_dropped_by_model, b.channel_dropped_by_model);
    EXPECT_EQ(a.avg_duty_cycle, b.avg_duty_cycle);
    EXPECT_EQ(a.avg_latency_s, b.avg_latency_s);
    EXPECT_EQ(serial[p].metrics.channel_dropped.mean(),
              parallel[p].metrics.channel_dropped.mean());
    // The lossy models actually lost frames, and the stack survived.
    EXPECT_GT(a.channel_dropped_by_model, 0u);
    EXPECT_GT(a.reports_sent, 0u);
  }
}

// Custom DeploymentSpec axis: full specs (not just kinds) are sweepable.
TEST(SweepMatrix, CustomDeploymentAxisAppliesWholeSpec) {
  net::DeploymentSpec corridor;
  corridor.kind = net::TopologyKind::kCorridor;
  corridor.num_nodes = 20;
  corridor.area_m = 600.0;
  corridor.corridor_width_m = 50.0;
  corridor.max_tree_dist_m = 600.0;
  net::DeploymentSpec uniform;
  uniform.num_nodes = 12;
  uniform.area_m = 250.0;
  uniform.max_tree_dist_m = 250.0;

  SweepSpec spec(small_base());
  spec.runs(1).axis_topology({uniform, corridor});
  const auto points = spec.points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].labels[0], "uniform");
  EXPECT_EQ(points[1].labels[0], "corridor");
  EXPECT_EQ(points[1].config.deployment.num_nodes, 20);
  EXPECT_DOUBLE_EQ(points[1].config.deployment.area_m, 600.0);
}

}  // namespace
}  // namespace essat::exp
