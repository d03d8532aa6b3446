// Acceptance checks for whole-trial snapshot capture/restore (src/snap):
//  * A capturing run is bit-identical to a plain run_scenario call —
//    pausing a Trial at the barrier injects nothing.
//  * resume_trial replays to the barrier, attests the rebuilt state
//    byte-for-byte, and finishes with RunMetrics bit-identical to the
//    straight run — across a protocol x topology x rate grid including
//    ETX routing, shadowing and bursty channels, mobility, and node
//    failures. The grid captures twice: at capture_barrier, before any
//    protocol has sent a frame, and at mid-measurement, where reports are
//    queued and in flight and the shapers hold their phase state.
//  * Snapshot bytes are a pure function of the config (capture twice ->
//    identical), survive the file round trip, and corruption of any layer
//    (container CRC, attested state) is detected loudly.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/harness/scenario.h"
#include "src/net/link_model.h"
#include "src/net/mobility.h"
#include "src/snap/config_codec.h"
#include "src/snap/metrics_codec.h"
#include "src/snap/serializer.h"
#include "src/snap/snapshot.h"
#include "src/snap/snapshot_io.h"
#include "src/snap/trial.h"

namespace essat::snap {
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

// Bit-exactness in one comparison: the RunMetrics codec covers every field
// (including per-node diagnostics, histograms, and the event-count
// bookkeeping), so byte equality of the encodings is the strongest form of
// "the runs were identical".
std::vector<std::uint8_t> fingerprint(const harness::RunMetrics& m) {
  return run_metrics_to_bytes(m);
}

// Captures at capture_barrier and at mid-measurement. Returns the straight
// run's metrics.
harness::RunMetrics expect_capture_and_resume_identical(
    const harness::ScenarioConfig& config, const std::string& what) {
  SCOPED_TRACE(what);
  const harness::RunMetrics straight = harness::run_scenario(config);
  const Time mid_measurement =
      harness::Trial{config}.measure_end() - config.measure_duration / 2;
  for (const Time barrier : {capture_barrier(config), mid_measurement}) {
    SCOPED_TRACE("barrier " + std::to_string(barrier.ns()) + " ns");
    const TrialCapture cap = capture_trial(config, barrier);
    const harness::RunMetrics resumed = resume_trial(cap.snapshot);
    EXPECT_EQ(fingerprint(straight), fingerprint(cap.metrics))
        << what << ": capturing perturbed the run";
    EXPECT_EQ(fingerprint(straight), fingerprint(resumed))
        << what << ": resumed run diverged from the straight run";
  }
  return straight;
}

TEST(SnapTrial, ProtocolGridBitIdentical) {
  for (const harness::Protocol p :
       {harness::Protocol::kNtsSs, harness::Protocol::kStsSs,
        harness::Protocol::kDtsSs, harness::Protocol::kSync,
        harness::Protocol::kPsm, harness::Protocol::kSpan}) {
    harness::ScenarioConfig c = small_base();
    c.protocol = p;
    expect_capture_and_resume_identical(c, c.protocol.name);
  }
}

TEST(SnapTrial, TopologyRateGridBitIdentical) {
  for (const net::TopologyKind kind :
       {net::TopologyKind::kGrid, net::TopologyKind::kClustered,
        net::TopologyKind::kCorridor}) {
    for (const double rate : {1.0, 2.0}) {
      harness::ScenarioConfig c = small_base();
      c.deployment.kind = kind;
      c.workload.base_rate_hz = rate;
      expect_capture_and_resume_identical(
          c, std::string{net::topology_kind_name(kind)} + " @" +
                 std::to_string(rate) + "Hz");
    }
  }
}

TEST(SnapTrial, EtxShadowingBitIdentical) {
  harness::ScenarioConfig c = small_base();
  c.routing.policy = "etx";
  c.channel_model.kind = net::LinkModelKind::kLogNormalShadowing;
  expect_capture_and_resume_identical(c, "etx + shadowing");
}

TEST(SnapTrial, GilbertElliottChannelBitIdentical) {
  harness::ScenarioConfig c = small_base();
  c.channel_model.kind = net::LinkModelKind::kGilbertElliott;
  expect_capture_and_resume_identical(c, "gilbert-elliott");
}

TEST(SnapTrial, MobilityMaintenanceFailuresBitIdentical) {
  harness::ScenarioConfig c = small_base();
  c.mobility.kind = net::MobilityKind::kRandomWaypoint;
  c.mobility.epoch_s = 1.0;
  c.enable_maintenance = true;
  c.faults.churn.scheduled.push_back({net::NodeId{3}, Time::seconds(2)});
  const harness::RunMetrics m = expect_capture_and_resume_identical(
      c, "waypoint + maintenance + failure");
  EXPECT_EQ(m.node_deaths, 1u);
}

TEST(SnapTrial, ExtraQueriesAndStsDeadlineBitIdentical) {
  harness::ScenarioConfig c = small_base();
  c.protocol = harness::Protocol::kStsSs;
  c.sts_deadline = Time::seconds(2);
  c.workload.extra_queries.push_back(query::Query{
      net::kNoQuery, Time::seconds(2), Time::seconds(4), 1});
  expect_capture_and_resume_identical(c, "extra queries + sts deadline");
}

// The barrier comes from the .snap file, so it is outside input. Running
// past the measurement window would change the metrics the trial collects.
TEST(SnapTrial, BarrierPastWindowRejected) {
  const harness::ScenarioConfig c = small_base();
  const Time measure_end = harness::Trial{c}.measure_end();
  EXPECT_THROW((void)capture_trial(c, measure_end + Time::seconds(1)),
               std::invalid_argument);

  TrialImage image = decode_trial(capture_trial(c).snapshot);
  image.barrier = measure_end + Time::seconds(1);
  EXPECT_THROW((void)resume_trial(image), std::invalid_argument);

  const TrialCapture at_end = capture_trial(c, measure_end);
  EXPECT_EQ(fingerprint(at_end.metrics), fingerprint(harness::run_scenario(c)));
  EXPECT_EQ(fingerprint(resume_trial(at_end.snapshot)),
            fingerprint(at_end.metrics));
}

// Snapshot bytes are a pure function of the config: two captures (and their
// framed wire forms) are identical, which is what makes them diffable
// across ESSAT_JOBS values and machines.
TEST(SnapTrial, CaptureIsDeterministic) {
  const harness::ScenarioConfig c = small_base();
  const TrialCapture a = capture_trial(c);
  const TrialCapture b = capture_trial(c);
  EXPECT_EQ(a.snapshot.payload, b.snapshot.payload);
  EXPECT_EQ(a.snapshot.to_bytes(), b.snapshot.to_bytes());
}

TEST(SnapTrial, FileRoundTripAndResume) {
  const std::string path = "snap_trial_test.roundtrip.snap";
  const harness::ScenarioConfig c = small_base();
  const TrialCapture cap = capture_trial(c);
  write_snapshot_file(path, cap.snapshot);
  const Snapshot loaded = read_snapshot_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.payload, cap.snapshot.payload);
  EXPECT_EQ(fingerprint(resume_trial(loaded)), fingerprint(cap.metrics));
}

TEST(SnapTrial, ContainerCorruptionDetected) {
  const TrialCapture cap = capture_trial(small_base());
  std::vector<std::uint8_t> wire = cap.snapshot.to_bytes();
  wire[wire.size() / 2] ^= 0x01;  // payload byte: CRC must catch it
  EXPECT_THROW((void)Snapshot::from_bytes(wire.data(), wire.size()), SnapError);
}

TEST(SnapTrial, AttestationCatchesTamperedState) {
  const TrialCapture cap = capture_trial(small_base());
  TrialImage image = decode_trial(cap.snapshot);
  ASSERT_FALSE(image.state.empty());
  image.state[image.state.size() / 2] ^= 0x01;
  EXPECT_THROW((void)resume_trial(image), SnapError);
}

TEST(SnapTrial, DecodeRejectsWrongKind) {
  Snapshot s;
  s.kind = static_cast<SnapshotKind>(2);
  EXPECT_THROW((void)decode_trial(s), SnapError);
}

// The config codec is stable through a full round trip, including the
// optional and nested fields the grid above does not exercise.
TEST(SnapTrial, ConfigCodecRoundTrip) {
  harness::ScenarioConfig c = small_base();
  c.protocol = "SPAN";
  c.deployment.kind = net::TopologyKind::kClustered;
  c.channel_model.kind = net::LinkModelKind::kGilbertElliott;
  c.channel_model.gilbert_base = net::LinkModelKind::kLogNormalShadowing;
  c.channel_model.prr_scale = 0.9;
  c.mobility.kind = net::MobilityKind::kWaypoints;
  c.mobility.traces.push_back(net::WaypointTrace{
      net::NodeId{2},
      {{Time::seconds(1), net::Position{10.0, 20.0}},
       {Time::seconds(3), net::Position{30.0, 5.0}}}});
  c.routing.policy = "etx";
  c.sts_deadline = Time::from_milliseconds(750);
  c.enable_maintenance = true;
  c.faults.churn.scheduled.push_back({net::NodeId{5}, Time::seconds(1)});
  c.workload.extra_queries.push_back(
      query::Query{net::QueryId{9}, Time::seconds(3), Time::seconds(8), 2});
  c.trace.enabled = true;
  c.trace.type_mask = obs::kPacketLifecycleTypes;
  c.trace.perfetto_path = "out-{seed}.json";
  c.seed = 99;

  const std::vector<std::uint8_t> bytes = scenario_config_to_bytes(c);
  const harness::ScenarioConfig back =
      scenario_config_from_bytes(bytes.data(), bytes.size());
  EXPECT_EQ(scenario_config_to_bytes(back), bytes);
  EXPECT_EQ(back.protocol.name, "SPAN");
  EXPECT_EQ(back.mobility.traces.size(), 1u);
  EXPECT_EQ(back.mobility.traces[0].points[1].second.x, 30.0);
  ASSERT_TRUE(back.sts_deadline.has_value());
  EXPECT_EQ(*back.sts_deadline, Time::from_milliseconds(750));
  EXPECT_EQ(back.trace.type_mask, obs::kPacketLifecycleTypes);
  EXPECT_EQ(back.trace.perfetto_path, "out-{seed}.json");
  ASSERT_EQ(back.faults.churn.scheduled.size(), 1u);
  EXPECT_EQ(back.faults.churn.scheduled[0].node, 5);
}

}  // namespace
}  // namespace essat::snap
