// Acceptance checks for the time-varying-topology / routing-policy
// redesign:
//  * An explicit static mobility model changes nothing.
//  * Random-waypoint runs are bit-identical for any worker count.
//  * ETX parent selection measurably improves delivery over min-hop on a
//    gray-zone shadowing channel.
#include <gtest/gtest.h>

#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/net/link_model.h"
#include "src/net/mobility.h"
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
  c.workload.base_rate_hz = 1.0;
  c.workload.query_start_window = Time::seconds(1);
  c.setup_duration = Time::seconds(2);
  c.measure_duration = Time::seconds(4);
  c.latency_grace = Time::seconds(1);
  c.seed = 7;
  return c;
}

// Installing an explicit StaticMobility model — epoch ticks, position
// re-sampling, grid neighbor rebuilds and all — must change nothing either.
TEST(MobilityRoutingMatrix, ExplicitStaticModelIdenticalToNoModel) {
  harness::ScenarioConfig c = small_base();
  harness::RunMetrics baseline = harness::run_scenario(c);

  // kWaypoints with no traces: every node holds its initial position, but
  // the whole time-varying machinery runs (ticks, rebuilds).
  c.mobility.kind = net::MobilityKind::kWaypoints;
  c.mobility.epoch_s = 1.0;
  harness::RunMetrics ticked = harness::run_scenario(c);
  // Epoch ticks are events of their own, so the two event-core counters
  // legitimately differ; everything the protocols produced must not.
  baseline.sim_events = ticked.sim_events = 0;
  baseline.peak_pending_events = ticked.peak_pending_events = 0;
  EXPECT_EQ(snap::run_metrics_to_bytes(baseline),
            snap::run_metrics_to_bytes(ticked));
}

// Determinism: random-waypoint mobility + shadowing loss + maintenance,
// bit-identical across worker counts (the acceptance criterion for forked
// per-trial mobility streams).
TEST(MobilityRoutingMatrix, RandomWaypointDeterministicAcrossJobCounts) {
  auto run_grid = [](int jobs) {
    harness::ScenarioConfig base = small_base();
    base.channel_model.kind = net::LinkModelKind::kLogNormalShadowing;
    base.enable_maintenance = true;
    base.mobility.kind = net::MobilityKind::kRandomWaypoint;
    base.mobility.waypoint.speed_min_mps = 1.0;
    base.mobility.waypoint.speed_max_mps = 3.0;
    base.mobility.waypoint.pause_s = 2.0;
    base.mobility.epoch_s = 1.0;
    std::vector<routing::RoutingSpec> routing(2);
    routing[0].policy = "min-hop";
    routing[1].policy = "etx";
    SweepSpec spec(base);
    spec.runs(2)
        .axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kNtsSs})
        .axis_routing(routing);
    SweepRunner::Options opts;
    opts.jobs = jobs;
    return SweepRunner(opts).run(spec);
  };
  const auto serial = run_grid(1);
  const auto parallel = run_grid(8);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), 4u);
  EXPECT_EQ(serial[0].point.labels,
            (std::vector<std::string>{"DTS-SS", "min-hop"}));
  EXPECT_EQ(serial[1].point.labels, (std::vector<std::string>{"DTS-SS", "etx"}));
  for (std::size_t p = 0; p < serial.size(); ++p) {
    SCOPED_TRACE(serial[p].point.labels[0] + " / " + serial[p].point.labels[1]);
    EXPECT_EQ(snap::run_metrics_to_bytes(serial[p].metrics.last_run),
              snap::run_metrics_to_bytes(parallel[p].metrics.last_run));
    EXPECT_EQ(serial[p].metrics.delivery_ratio.mean(),
              parallel[p].metrics.delivery_ratio.mean());
    // The run actually exercised the lossy mobile world.
    EXPECT_GT(serial[p].metrics.last_run.channel_dropped_by_model, 0u);
    EXPECT_GT(serial[p].metrics.last_run.reports_sent, 0u);
  }
}

// Mobility must actually change the world relative to a static run.
TEST(MobilityRoutingMatrix, WaypointMobilityChangesOutcomes) {
  harness::ScenarioConfig c = small_base();
  c.measure_duration = Time::seconds(8);
  const harness::RunMetrics fixed = harness::run_scenario(c);
  c.mobility.kind = net::MobilityKind::kRandomWaypoint;
  c.mobility.waypoint.speed_min_mps = 2.0;
  c.mobility.waypoint.speed_max_mps = 5.0;
  c.mobility.waypoint.pause_s = 0.0;
  c.mobility.epoch_s = 1.0;
  const harness::RunMetrics moving = harness::run_scenario(c);
  EXPECT_NE(fixed.avg_duty_cycle, moving.avg_duty_cycle);
}

// The acceptance criterion: over a gray-zone shadowing channel, ETX parent
// selection delivers measurably more than min-hop. Averaged over several
// seeds on a deployment sparse enough that min-hop must take long marginal
// links.
TEST(MobilityRoutingMatrix, EtxImprovesDeliveryOnGrayZoneShadowing) {
  auto run_point = [](const std::string& policy) {
    harness::ScenarioConfig base = small_base();
    base.deployment.num_nodes = 20;
    base.deployment.area_m = 320.0;
    base.deployment.max_tree_dist_m = 320.0;
    base.measure_duration = Time::seconds(10);
    base.channel_model.kind = net::LinkModelKind::kLogNormalShadowing;
    // Harsh gray zone: the margin at range is negative, so links near the
    // disc edge sit well below 50% PRR while short links stay reliable.
    base.channel_model.shadowing.range_margin_db = -3.0;
    base.channel_model.shadowing.gray_zone_width_db = 3.0;
    base.channel_model.shadowing.shadowing_sigma_db = 4.0;
    base.routing.policy = policy;
    SweepSpec spec(base);
    spec.runs(5);
    SweepRunner::Options opts;
    opts.jobs = 4;
    return SweepRunner(opts).run(spec)[0].metrics;
  };
  const auto min_hop = run_point("min-hop");
  const auto etx = run_point("etx");
  // Measurable, not marginal: ETX routes around the gray zone.
  EXPECT_GT(etx.delivery_ratio.mean(), min_hop.delivery_ratio.mean() + 0.02)
      << "etx " << etx.delivery_ratio.mean() << " vs min-hop "
      << min_hop.delivery_ratio.mean();
  // And it spends fewer no-ACK retransmissions doing it.
  EXPECT_LT(etx.retx_no_ack.mean(), min_hop.retx_no_ack.mean());
}

// Axis helpers label the grid correctly.
TEST(MobilityRoutingMatrix, AxisMobilityAndRoutingLabels) {
  std::vector<net::MobilitySpec> mobility(2);
  mobility[1].kind = net::MobilityKind::kRandomWaypoint;
  mobility[1].waypoint.speed_max_mps = 2.0;
  std::vector<routing::RoutingSpec> routing(2);
  routing[1].policy = "etx";

  SweepSpec spec(small_base());
  spec.runs(1).axis_mobility(mobility).axis_routing(routing);
  EXPECT_EQ(spec.axis_names(),
            (std::vector<std::string>{"mobility", "routing"}));
  const auto points = spec.points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].labels, (std::vector<std::string>{"static", "min-hop"}));
  EXPECT_EQ(points[3].labels,
            (std::vector<std::string>{"waypoint@2mps", "etx"}));
  EXPECT_EQ(points[3].config.mobility.kind, net::MobilityKind::kRandomWaypoint);
  EXPECT_EQ(points[3].config.routing.policy, "etx");
}

}  // namespace
}  // namespace essat::exp
