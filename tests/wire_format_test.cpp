// Golden wire format. The ScenarioConfig and RunMetrics encodings identify
// and carry every trial: snapshots, the restored-vs-straight-run checks,
// and perfbench's config and metrics digests all hash or compare these
// bytes. The JSONL row is what downstream scripts parse. A round-trip
// test cannot see a reordered field or column, because encoder and
// decoder (or key and value) move together; these pinned
// lengths, CRCs and strings can. Changing a codec is a snap::kFormatVersion
// bump; changing a sink is an output-format change. Either way the
// constants below are re-recorded in the same change, on purpose.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/aggregate.h"
#include "src/exp/sinks.h"
#include "src/harness/metrics.h"
#include "src/harness/scenario.h"
#include "src/net/link_model.h"
#include "src/net/mobility.h"
#include "src/snap/config_codec.h"
#include "src/snap/metrics_codec.h"
#include "src/snap/serializer.h"
#include "src/snap/snapshot.h"
#include "src/snap/trial.h"

namespace essat {
namespace {

using util::Time;

std::uint32_t crc(const std::vector<std::uint8_t>& b) {
  return snap::crc32(b.data(), b.size());
}

// Every field off its default: optionals present, every vector non-empty.
harness::ScenarioConfig full_config() {
  harness::ScenarioConfig c;
  c.protocol = harness::ProtocolKey{"NTS-SS"};

  c.deployment.kind = net::TopologyKind::kCorridor;
  c.deployment.num_nodes = 123;
  c.deployment.area_m = 640.5;
  c.deployment.range_m = 110.25;
  c.deployment.max_tree_dist_m = 280.75;
  c.deployment.clusters = 6;
  c.deployment.cluster_sigma_m = 33.5;
  c.deployment.corridor_width_m = 48.0;

  c.workload.base_rate_hz = 2.5;
  c.workload.queries_per_class = 3;
  c.workload.query_start_window = Time::milliseconds(1500);
  query::Query q;
  q.id = 41;
  q.period = Time::milliseconds(700);
  q.phase = Time::milliseconds(9100);
  q.query_class = 2;
  c.workload.extra_queries = {q, q};
  c.workload.extra_queries[1].id = 42;
  c.workload.extra_queries[1].query_class = 1;

  c.channel_model.kind = net::LinkModelKind::kGilbertElliott;
  c.channel_model.prr_scale = 0.875;
  c.channel_model.shadowing.path_loss_exponent = 2.75;
  c.channel_model.shadowing.shadowing_sigma_db = 5.5;
  c.channel_model.shadowing.gray_zone_width_db = 2.25;
  c.channel_model.shadowing.range_margin_db = 1.5;
  c.channel_model.gilbert.p_good_to_bad = 0.0625;
  c.channel_model.gilbert.p_bad_to_good = 0.375;
  c.channel_model.gilbert.prr_good = 0.96875;
  c.channel_model.gilbert.prr_bad = 0.125;
  c.channel_model.gilbert_base = net::LinkModelKind::kLogNormalShadowing;

  c.channel_params.propagation_delay = Time::microseconds(3);
  c.channel_params.capture_distance_ratio = 1.5;
  c.channel_params.dense_link_stats_below = 77;

  c.mobility.kind = net::MobilityKind::kRandomWaypoint;
  c.mobility.waypoint.speed_min_mps = 0.75;
  c.mobility.waypoint.speed_max_mps = 2.25;
  c.mobility.waypoint.pause_s = 4.5;
  c.mobility.epoch_s = 1.25;

  c.routing.policy = "etx";
  c.routing.etx.prior_weight = 6.0;
  c.routing.etx.min_prr = 0.1;
  c.routing.etx.max_link_etx = 12.0;

  c.setup_duration = Time::seconds(7);
  c.measure_duration = Time::seconds(90);
  c.latency_grace = Time::seconds(3);
  c.t_be = Time::from_milliseconds(3.5);
  c.sts_deadline = Time::milliseconds(750);
  c.dts_t_to = Time::milliseconds(120);
  c.t_comp = Time::milliseconds(6);

  c.mac_params.slot = Time::microseconds(21);
  c.mac_params.difs = Time::microseconds(52);
  c.mac_params.sifs = Time::microseconds(11);
  c.mac_params.phy_overhead = Time::microseconds(190);
  c.mac_params.bandwidth_bps = 2e6;
  c.mac_params.cw_min = 15;
  c.mac_params.cw_max = 511;
  c.mac_params.initial_data_cw = 127;
  c.mac_params.max_attempts = 7;
  c.mac_params.ack_timeout_slack = Time::microseconds(61);
  c.mac_params.dense_dup_table_below = 88;

  c.enable_maintenance = true;

  c.faults.churn.scheduled = {{4, Time::seconds(2), Time::seconds(5)},
                              {9, Time::seconds(8), Time::zero()}};
  c.faults.churn.node_fraction = 0.125;
  c.faults.churn.mean_downtime_s = 7.5;

  c.trace.enabled = true;
  c.trace.buffer_cap = 4096;
  c.trace.type_mask = 0x5a5a;
  c.trace.perfetto_path = "trace_{seed}.pftrace";
  c.trace.jsonl_path = "trace_{seed}.jsonl";

  c.seed = 0x1234567890abcdefULL;
  return c;
}

// Every scalar non-zero, per_node / duty_by_rank / sleep_hist populated.
harness::RunMetrics full_metrics() {
  harness::RunMetrics m;
  m.avg_duty_cycle = 0.123456789;
  m.duty_by_rank = {0.5, 0.25, 0.125};
  m.avg_latency_s = 1.5;
  m.p95_latency_s = 2.5;
  m.max_latency_s = 3.5;
  m.delivery_ratio = 0.99;
  m.epochs_measured = 40;
  // A distinct count in every bin, the overflow and the short count:
  // bin b holds b + 1 values and overflow 9, plus 10 short ones in bin 0.
  for (int b = 0; b <= 8; ++b) {
    for (int k = 0; k <= b; ++k) m.sleep_hist.add(0.0125 + 0.025 * b);
  }
  for (int k = 0; k < 10; ++k) m.sleep_hist.add(0.001);
  m.frac_sleep_below_2_5ms = 0.0625;
  m.phase_update_bits_per_report = 0.75;
  m.phase_updates = 12;
  for (int i = 0; i < 3; ++i) {
    harness::RunMetrics::NodeDiag d;
    d.id = 10 + i;
    d.rank = i;
    d.level = i + 1;
    d.leaf = i == 2;
    d.duty_cycle = 0.1 * (i + 1);
    d.reports_sent = 100u + i;
    d.send_failures = 1u + i;
    d.pass_through = 2u + i;
    d.child_timeouts = 3u + i;
    d.retx_no_ack = 4u + i;
    d.cca_busy_defers = 5u + i;
    d.repair_attempts = 6u + i;
    m.per_node.push_back(d);
  }
  m.reports_sent = 50;
  m.mac_transmissions = 200;
  m.mac_send_failures = 5;
  m.mac_retx_no_ack = 20;
  m.mac_cca_busy_defers = 30;
  m.channel_collisions = 7;
  m.channel_delivered = 180;
  m.channel_dropped_by_model = 13;
  m.pass_through_forwarded = 4;
  m.tree_members = 3;
  m.max_rank = 2;
  m.backbone_size = 1;
  m.sim_events = 123456;
  m.peak_pending_events = 789;
  m.node_deaths = 2;
  m.downtime_s = 17.25;
  m.delivery_during_fault = 0.8125;
  return m;
}

TEST(WireFormat, ScenarioConfigBytesPinned) {
  ASSERT_EQ(snap::kFormatVersion, 8u) << "re-record the constants below";
  const auto bytes = snap::scenario_config_to_bytes(full_config());
  EXPECT_EQ(bytes.size(), 590u);
  EXPECT_EQ(crc(bytes), 1643716630u);
  // The pinned bytes decode back to themselves.
  EXPECT_EQ(snap::scenario_config_to_bytes(
                snap::scenario_config_from_bytes(bytes.data(), bytes.size())),
            bytes);
}

TEST(WireFormat, RunMetricsBytesPinned) {
  ASSERT_EQ(snap::kFormatVersion, 8u) << "re-record the constants below";
  const auto bytes = snap::run_metrics_to_bytes(full_metrics());
  EXPECT_EQ(bytes.size(), 559u);
  EXPECT_EQ(crc(bytes), 2152200120u);
}

// A traced trial with ETX parents and scheduled churn. Unit-disc links,
// static placement and no stochastic churn keep libm out of its bytes.
// Tracing only records, so its state and metrics are the untraced
// trial's, and the pins hold with tracing compiled out.
harness::ScenarioConfig pinned_trial_config() {
  harness::ScenarioConfig c;
  c.deployment.num_nodes = 30;
  c.deployment.area_m = 300.0;
  c.seed = 5;
  c.setup_duration = Time::seconds(2);
  c.workload.query_start_window = Time::seconds(1);
  c.measure_duration = Time::seconds(6);
  c.routing.policy = "etx";
  c.faults.churn.scheduled = {{4, Time::seconds(1), Time::seconds(2)},
                              {9, Time::seconds(3)}};
  c.trace.enabled = true;
  c.workload.extra_queries.push_back(
      query::Query{net::kNoQuery, Time::seconds(2), Time::seconds(4), 1});
  return c;
}

// Capture and resume serialize through the same code, so a reordered or
// dropped component passes every round trip; these pins catch it. A framed
// snapshot ends in its payload's CRC, which makes the CRC of the framed
// bytes depend on the header and length only, so the payload CRC is pinned
// as well.
TEST(WireFormat, TrialSnapshotBytesPinned) {
  ASSERT_EQ(snap::kFormatVersion, 8u) << "re-record the constants below";
  const harness::ScenarioConfig c = pinned_trial_config();

  const snap::TrialCapture at_zero = snap::capture_trial(c, Time::zero());
  const auto zero_bytes = at_zero.snapshot.to_bytes();
  EXPECT_EQ(zero_bytes.size(), 242596u);
  EXPECT_EQ(crc(zero_bytes), 928784905u);
  EXPECT_EQ(crc(at_zero.snapshot.payload), 3310102411u);

  // Mid-measurement: queued and in-flight reports, DTS phase state.
  const Time mid = harness::Trial{c}.measure_end() - c.measure_duration / 2;
  const snap::TrialCapture cap = snap::capture_trial(c, mid);
  const auto cap_bytes = cap.snapshot.to_bytes();
  EXPECT_EQ(cap_bytes.size(), 267440u);
  EXPECT_EQ(crc(cap_bytes), 475174945u);
  EXPECT_EQ(crc(cap.snapshot.payload), 3074412505u);

  const auto metrics = snap::run_metrics_to_bytes(cap.metrics);
  EXPECT_EQ(metrics.size(), 2484u);
  EXPECT_EQ(crc(metrics), 2755182717u);
}

// Two runs whose every aggregated metric differs, so a swapped column or a
// metric folded into the wrong accumulator changes the row.
exp::PointResult full_point() {
  harness::RunMetrics m = full_metrics();
  exp::Aggregator agg;
  agg.add(m);
  m.avg_duty_cycle = 0.25;
  m.avg_latency_s = 0.375;
  m.p95_latency_s = 0.5;
  m.delivery_ratio = 0.875;
  m.phase_update_bits_per_report = 1.25;
  m.mac_send_failures = 9;
  m.channel_dropped_by_model = 11;
  m.mac_retx_no_ack = 14;
  m.mac_cca_busy_defers = 16;
  m.node_deaths = 3;
  m.downtime_s = 21.5;
  m.delivery_during_fault = 0.6875;
  agg.add(m);
  exp::PointResult r;
  r.point.index = 3;
  r.point.labels = {"1.5", "DTS-SS"};
  r.metrics = agg.take();
  return r;
}

TEST(WireFormat, JsonLinesRowPinned) {
  std::ostringstream os;
  exp::JsonLinesSink sink(os);
  sink.begin({"rate", "protocol"});
  sink.on_point(full_point());
  sink.finish();
  EXPECT_EQ(os.str(),
            "{\"point\":3,\"labels\":{\"rate\":\"1.5\","
            "\"protocol\":\"DTS-SS\"},\"runs\":2,"
            "\"duty_mean\":0.18672839450000001,"
            "\"duty_ci90\":0.39949691712699992,\"latency_mean\":0.9375,"
            "\"latency_ci90\":3.551625,\"p95_latency\":1.5,"
            "\"delivery_mean\":0.9325,\"phase_bits_mean\":1,"
            "\"send_failures\":7,\"model_drops\":12,\"retx_no_ack\":17,"
            "\"cca_busy_defers\":23,\"node_deaths\":2.5,"
            "\"downtime_s\":19.375,\"delivery_during_fault\":0.75}\n");
}

}  // namespace
}  // namespace essat
