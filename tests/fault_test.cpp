// Acceptance checks for the fault-injection axis (src/fault):
//  * scheduled churn kills and restarts nodes, with downtime and death
//    counts surfacing in RunMetrics, and rejects out-of-range node ids;
//  * stochastic churn, battery depletion and clock drift are deterministic
//    (same config -> bit-identical RunMetrics) and respect the root
//    exemption;
//  * drifted clocks with a zero or 1 us break-even time finish without a
//    sleep/wake livelock, and PSM and SYNC, which have no drifted timer,
//    refuse drift;
//  * fault schedules are byte-identical across ESSAT_JOBS values (the
//    engine pre-draws everything from per-node forked streams);
//  * SINR capture with the threshold at +inf reproduces the legacy
//    no-capture channel byte for byte;
//  * sinks emit the fault columns as zeros when faults are disabled.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/sinks.h"
#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/fault/fault_spec.h"
#include "src/harness/scenario.h"
#include "src/snap/metrics_codec.h"

namespace essat {
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
  c.setup_duration = Time::seconds(2);   // setup ends at t=2s
  c.measure_duration = Time::seconds(4); // window [5s, 9s)
  c.latency_grace = Time::seconds(1);
  c.seed = 7;
  return c;
}

std::vector<std::uint8_t> fingerprint(const harness::RunMetrics& m) {
  return snap::run_metrics_to_bytes(m);
}

// ------------------------------------------------------------ FaultSpec

TEST(FaultSpec, DefaultIsDisabledAndLabelledNone) {
  const fault::FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_FALSE(spec.churn.enabled());
  EXPECT_FALSE(spec.battery.enabled());
  EXPECT_FALSE(spec.drift.enabled());
  EXPECT_EQ(spec.label(), "none");
}

TEST(FaultSpec, LabelNamesEachEnabledAxis) {
  fault::FaultSpec spec;
  spec.churn.scheduled.push_back({net::NodeId{3}, Time::seconds(1), Time::seconds(2)});
  EXPECT_EQ(spec.label(), "churn-sched1");
  spec.churn.node_fraction = 0.1;
  spec.battery.budget_mj = 500.0;
  spec.drift.skew_sigma_ppm = 50.0;
  EXPECT_EQ(spec.label(), "churn-sched1+churn0.1+batt500mJ+drift50ppm");
}

// ------------------------------------------------------------ churn

TEST(FaultChurn, ScheduledOutageCountsDeathAndDowntime) {
  harness::ScenarioConfig c = small_base();
  // Crash node 3 at setup_end + 2.5s = 4.5s, restart at 6.5s: the outage
  // overlaps the [5s, 9s) measurement window for exactly 1.5 node-seconds.
  c.faults.churn.scheduled.push_back(
      {net::NodeId{3}, Time::from_milliseconds(2500), Time::seconds(2)});
  const harness::RunMetrics m = harness::run_scenario(c);
  EXPECT_EQ(m.node_deaths, 1u);
  EXPECT_DOUBLE_EQ(m.downtime_s, 1.5);
  EXPECT_GT(m.delivery_ratio, 0.0);
}

TEST(FaultChurn, PermanentDeathAccruesDowntimeToWindowEnd) {
  harness::ScenarioConfig c = small_base();
  // down_for <= 0 is a permanent death before the window opens: the outage
  // is clipped to the full 4 s measurement window.
  c.faults.churn.scheduled.push_back(
      {net::NodeId{3}, Time::from_milliseconds(500), Time::zero()});
  const harness::RunMetrics m = harness::run_scenario(c);
  EXPECT_EQ(m.node_deaths, 1u);
  EXPECT_DOUBLE_EQ(m.downtime_s, 4.0);
  EXPECT_GT(m.delivery_ratio, 0.0);  // survivors keep reporting
}

TEST(FaultChurn, RootEntriesAreIgnored) {
  harness::ScenarioConfig c = small_base();
  // Schedule a permanent death for every node: the root (the sink is
  // mains-powered) must be exempted, so exactly 11 of 12 die.
  for (int n = 0; n < c.deployment.num_nodes; ++n) {
    c.faults.churn.scheduled.push_back(
        {net::NodeId{n}, Time::from_milliseconds(500), Time::zero()});
  }
  const harness::RunMetrics m = harness::run_scenario(c);
  EXPECT_EQ(m.node_deaths, 11u);
  EXPECT_DOUBLE_EQ(m.downtime_s, 44.0);
}

TEST(FaultChurn, OutOfRangeScheduledNodeIsRejected) {
  for (const net::NodeId bad : {net::kNoNode, net::NodeId{12}}) {
    harness::ScenarioConfig c = small_base();
    c.faults.churn.scheduled.push_back(
        {net::NodeId{3}, Time::from_milliseconds(500), Time::zero()});
    c.faults.churn.scheduled.push_back(
        {bad, Time::from_milliseconds(500), Time::zero()});
    try {
      (void)harness::run_scenario(c);
      FAIL() << "expected std::invalid_argument for node " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("churn.scheduled[1]"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::to_string(bad)), std::string::npos) << msg;
    }
  }
}

TEST(FaultChurn, StochasticChurnIsDeterministicAndSparesRoot) {
  harness::ScenarioConfig c = small_base();
  c.faults.churn.node_fraction = 1.0;  // every non-root node crashes once
  c.faults.churn.mean_downtime_s = 1.0;
  const harness::RunMetrics a = harness::run_scenario(c);
  const harness::RunMetrics b = harness::run_scenario(c);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.node_deaths, 11u);  // 12 nodes minus the root
  EXPECT_GT(a.downtime_s, 0.0);
}

// ------------------------------------------------------------ battery

TEST(FaultBattery, TinyBudgetKillsEveryNonRootNodePermanently) {
  harness::ScenarioConfig c = small_base();
  // 1 mJ dies at the very first poll (idle listen is ~24 mW): every
  // non-root node is dead before the window opens, and battery death is
  // permanent, so downtime is 11 nodes x the full 4 s window.
  c.faults.battery.budget_mj = 1.0;
  const harness::RunMetrics m = harness::run_scenario(c);
  EXPECT_EQ(m.node_deaths, 11u);
  EXPECT_DOUBLE_EQ(m.downtime_s, 44.0);
  const harness::RunMetrics again = harness::run_scenario(c);
  EXPECT_EQ(fingerprint(m), fingerprint(again));
}

// ------------------------------------------------------------ drift

TEST(FaultDrift, DriftedClocksStillDeliverDeterministically) {
  harness::ScenarioConfig c = small_base();
  c.faults.drift.skew_sigma_ppm = 50.0;
  c.faults.drift.max_offset_ms = 2.0;
  const harness::RunMetrics a = harness::run_scenario(c);
  const harness::RunMetrics b = harness::run_scenario(c);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.node_deaths, 0u);
  EXPECT_DOUBLE_EQ(a.downtime_s, 0.0);
  EXPECT_GT(a.delivery_ratio, 0.0);
}

// The default deployment with drifted clocks and a zero or tiny break-even
// time: a wake-up the drifted clock would fire at or before now must keep
// the radio on. Were it to sleep, the wake-up would fire at once and its
// re-check would sleep again, so simulated time would advance by T_BE or
// not at all. The 1 us run goes first and stops the test on failure, so a
// regression fails on the event count before the T_BE = 0 run can exhaust
// memory.
TEST(FaultDrift, ZeroBreakEvenFinishesWithoutLivelock) {
  for (harness::Protocol p : {harness::Protocol::kDtsSs, harness::Protocol::kStsSs,
                              harness::Protocol::kNtsSs, harness::Protocol::kSpan}) {
    for (Time t_be : {Time::microseconds(1), Time::zero()}) {
      SCOPED_TRACE(std::string{harness::protocol_name(p)} + " T_BE " +
                   t_be.to_string());
      harness::ScenarioConfig c;
      c.protocol = p;
      c.seed = 11;
      c.measure_duration = Time::seconds(30);
      c.t_be = t_be;
      c.faults.drift.skew_sigma_ppm = 20.0;
      c.faults.drift.max_offset_ms = 2.0;
      const harness::RunMetrics m = harness::run_scenario(c);
      ASSERT_LT(m.sim_events, 1'000'000u);
      EXPECT_GT(m.delivery_ratio, 0.0);
    }
  }
}

// Drift acts at the SafeSleep wake timer, and PSM and SYNC run none: a
// drifted run would silently equal the undrifted one, so the trial is
// refused before any event runs.
TEST(FaultDrift, PsmAndSyncRejectDrift) {
  for (harness::Protocol p :
       {harness::Protocol::kPsm, harness::Protocol::kSync}) {
    const std::string name = harness::protocol_name(p);
    SCOPED_TRACE(name);
    harness::ScenarioConfig c = small_base();
    c.protocol = p;
    c.faults.drift.skew_sigma_ppm = 100.0;
    c.faults.drift.max_offset_ms = 20.0;
    try {
      harness::run_scenario(c);
      ADD_FAILURE() << "drift accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("faults.drift"), std::string::npos) << what;
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

// ------------------------------------------------------------ SINR

TEST(FaultSinr, InfiniteCaptureThresholdMatchesNoCaptureByteForByte) {
  // The documented limit: capture_threshold_db -> +inf with min_snr_db at
  // its -inf default means every overlap collides and no frame is below
  // the noise floor — byte-identical to capture_distance_ratio <= 0.
  harness::ScenarioConfig legacy = small_base();
  legacy.workload.base_rate_hz = 4.0;  // enough traffic to collide
  legacy.channel_params.capture_distance_ratio = 0.0;
  harness::ScenarioConfig sinr = legacy;
  sinr.channel_params.sinr.enabled = true;
  sinr.channel_params.sinr.capture_threshold_db = 1.0e12;
  EXPECT_EQ(fingerprint(harness::run_scenario(legacy)),
            fingerprint(harness::run_scenario(sinr)));
}

// ------------------------------------------------------------ sweeps

std::string run_churn_sweep_jsonl(int jobs) {
  fault::FaultSpec none;
  fault::FaultSpec churn;
  churn.churn.node_fraction = 0.3;
  churn.churn.mean_downtime_s = 1.0;

  exp::SweepSpec spec(small_base());
  spec.runs(2)
      .axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kNtsSs})
      .axis_faults({none, churn});

  std::ostringstream os;
  exp::JsonLinesSink sink(os);
  exp::SweepRunner::Options opts;
  opts.jobs = jobs;
  exp::SweepRunner(opts).run(spec, {&sink});
  return os.str();
}

TEST(FaultSweep, ChurnScheduleByteIdenticalAcrossJobs) {
  const std::string serial = run_churn_sweep_jsonl(1);
  const std::string parallel = run_churn_sweep_jsonl(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("churn0.3"), std::string::npos);
}

TEST(FaultSweep, SinkEmitsFaultColumnsAsZerosWhenDisabled) {
  exp::SweepSpec spec(small_base());  // no fault axis, faults disabled
  spec.runs(1);
  std::ostringstream os;
  exp::JsonLinesSink sink(os);
  exp::SweepRunner::Options opts;
  opts.jobs = 1;
  exp::SweepRunner(opts).run(spec, {&sink});

  const std::string line = os.str();
  for (const char* key : {"\"node_deaths\":0,", "\"downtime_s\":0,",
                          "\"delivery_during_fault\":0}"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace essat
