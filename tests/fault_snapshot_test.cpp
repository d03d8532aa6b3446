// Snapshot semantics under fault injection: a trial captured in the middle
// of an outage (node down, restart event pending, outage interval open)
// must attest byte-for-byte on resume and continue bit-identically — the
// fault engine's mutable state serializes through the same TRST section as
// every other component, and its schedule is pure config rebuilt by replay.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/scenario.h"
#include "src/snap/config_codec.h"
#include "src/snap/metrics_codec.h"
#include "src/snap/snapshot.h"
#include "src/snap/trial.h"

namespace essat::snap {
namespace {

using util::Time;

harness::ScenarioConfig faulty_base() {
  harness::ScenarioConfig c;
  c.deployment.num_nodes = 12;
  c.deployment.area_m = 250.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 250.0;
  c.workload.base_rate_hz = 1.0;
  c.workload.query_start_window = Time::seconds(1);
  c.setup_duration = Time::seconds(2);   // setup ends at t=2s
  c.measure_duration = Time::seconds(4); // window [5s, 9s)
  c.latency_grace = Time::seconds(1);
  c.seed = 7;
  // Node 3 is down over [3.5s, 6.5s): any barrier inside that interval is
  // mid-outage, with the restart event still pending in the queue.
  c.faults.churn.scheduled.push_back(
      {net::NodeId{3}, Time::from_milliseconds(1500), Time::seconds(3)});
  return c;
}

std::vector<std::uint8_t> fingerprint(const harness::RunMetrics& m) {
  return run_metrics_to_bytes(m);
}

void expect_capture_and_resume_identical(const harness::ScenarioConfig& config,
                                         Time barrier, const std::string& what) {
  SCOPED_TRACE(what);
  const harness::RunMetrics straight = harness::run_scenario(config);
  const TrialCapture cap = capture_trial(config, barrier);
  const harness::RunMetrics resumed = resume_trial(cap.snapshot);
  EXPECT_EQ(fingerprint(straight), fingerprint(cap.metrics))
      << what << ": capturing perturbed the run";
  EXPECT_EQ(fingerprint(straight), fingerprint(resumed))
      << what << ": resumed run diverged from the straight run";
}

TEST(FaultSnapshot, MidOutageCaptureResumesBitIdentically) {
  expect_capture_and_resume_identical(faulty_base(), Time::seconds(5),
                                      "mid-outage barrier at 5s");
}

TEST(FaultSnapshot, CaptureAfterRestartResumesBitIdentically) {
  expect_capture_and_resume_identical(faulty_base(), Time::seconds(7),
                                      "post-restart barrier at 7s");
}

TEST(FaultSnapshot, StochasticChurnResumes) {
  harness::ScenarioConfig c = faulty_base();
  c.faults.churn.node_fraction = 0.3;
  c.faults.churn.mean_downtime_s = 1.0;
  expect_capture_and_resume_identical(c, Time::seconds(6),
                                      "scheduled and stochastic churn at 6s");
}

TEST(FaultSnapshot, MidOutageCaptureIsDeterministic) {
  const harness::ScenarioConfig c = faulty_base();
  const TrialCapture a = capture_trial(c, Time::seconds(5));
  const TrialCapture b = capture_trial(c, Time::seconds(5));
  EXPECT_EQ(a.snapshot.payload, b.snapshot.payload);
  EXPECT_EQ(a.snapshot.to_bytes(), b.snapshot.to_bytes());
}

TEST(FaultSnapshot, AttestationCatchesTamperedFaultState) {
  const TrialCapture cap = capture_trial(faulty_base(), Time::seconds(5));
  TrialImage image = decode_trial(cap.snapshot);
  ASSERT_FALSE(image.state.empty());
  image.state[image.state.size() / 2] ^= 0x01;
  EXPECT_THROW((void)resume_trial(image), SnapError);
}

// The config codec covers the churn fields.
TEST(FaultSnapshot, ConfigCodecRoundTripsFaultFields) {
  harness::ScenarioConfig c = faulty_base();
  c.faults.churn.node_fraction = 0.15;
  c.faults.churn.mean_downtime_s = 7.5;

  const std::vector<std::uint8_t> bytes = scenario_config_to_bytes(c);
  const harness::ScenarioConfig back =
      scenario_config_from_bytes(bytes.data(), bytes.size());
  EXPECT_EQ(scenario_config_to_bytes(back), bytes);
  ASSERT_EQ(back.faults.churn.scheduled.size(), 1u);
  EXPECT_EQ(back.faults.churn.scheduled[0].node, 3);
  EXPECT_EQ(back.faults.churn.scheduled[0].down_for, Time::seconds(3));
  EXPECT_EQ(back.faults.churn.node_fraction, 0.15);
  EXPECT_EQ(back.faults.churn.mean_downtime_s, 7.5);
}

}  // namespace
}  // namespace essat::snap
