// Acceptance checks for the fault-injection axis (src/fault):
//  * scheduled churn kills and restarts nodes, with downtime and death
//    counts surfacing in RunMetrics, and rejects out-of-range node ids;
//  * stochastic churn is deterministic (same config -> bit-identical
//    RunMetrics), respects the root exemption, and is permanent at a
//    non-positive mean downtime;
//  * faults strike only the routing tree's members at t = 0: under churn
//    no node outside that tree ever becomes a member, and a scheduled
//    fault naming an outsider is skipped;
//  * fault schedules are byte-identical across ESSAT_JOBS values (the
//    engine pre-draws everything from per-node forked streams);
//  * sinks emit the fault columns as zeros when faults are disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/sinks.h"
#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/fault/fault_spec.h"
#include "src/harness/scenario.h"
#include "src/obs/tracer.h"
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
  EXPECT_EQ(spec.label(), "none");
}

TEST(FaultSpec, LabelNamesEachEnabledAxis) {
  fault::FaultSpec spec;
  spec.churn.scheduled.push_back({net::NodeId{3}, Time::seconds(1), Time::seconds(2)});
  EXPECT_EQ(spec.label(), "churn-sched1");
  spec.churn.node_fraction = 0.1;
  EXPECT_EQ(spec.label(), "churn-sched1+churn0.1");
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

// A non-positive mean downtime makes every stochastic crash permanent: no
// node restarts, so each outage lasts from its crash to the window's end.
// Crash times are drawn before downtimes, so a mean so long that no
// restart falls inside the window crashes every node at the same time and
// must count the same downtime.
TEST(FaultChurn, NonPositiveMeanDowntimeIsPermanent) {
  harness::ScenarioConfig c = small_base();
  c.faults.churn.node_fraction = 1.0;
  c.faults.churn.mean_downtime_s = 0.0;
  c.trace.enabled = true;
  c.trace.type_mask = obs::trace_bit(obs::TraceType::kFaultDown) |
                      obs::trace_bit(obs::TraceType::kFaultUp);
  std::vector<obs::TraceRecord> records;
  c.trace.sink = [&records](const obs::Tracer& t) { records = t.snapshot(); };
  const harness::RunMetrics m = harness::run_scenario(c);
  EXPECT_EQ(m.node_deaths, 11u);
  if (obs::kTracingCompiledIn) {
    EXPECT_EQ(records.size(), 11u);
    for (const obs::TraceRecord& r : records) {
      EXPECT_EQ(r.trace_type(), obs::TraceType::kFaultDown)
          << "node " << r.node << " restarted at t=" << r.t_ns << " ns";
    }
  }

  harness::ScenarioConfig outlasting = small_base();
  outlasting.faults.churn.node_fraction = 1.0;
  outlasting.faults.churn.mean_downtime_s = 1.0e9;
  const harness::RunMetrics open = harness::run_scenario(outlasting);
  EXPECT_EQ(open.node_deaths, 11u);
  EXPECT_GT(m.downtime_s, 0.0);
  EXPECT_DOUBLE_EQ(m.downtime_s, open.downtime_s);
}

// ------------------------------------------------------------ population

// The paper's grid (80 nodes in 500 m, 125 m range, 300 m tree cap) with a
// 60 s window. A rejoin does not check the cap, so an outsider that churned
// and restarted would join from beyond it (307-356 m out in these runs).
harness::ScenarioConfig paper_grid(harness::Protocol p, std::uint64_t seed) {
  harness::ScenarioConfig c;
  c.protocol = p;
  c.measure_duration = Time::seconds(60);
  c.seed = seed;
  return c;
}

// The routing tree's members at t = 0, ascending: the members at the end
// of a fault-free trial, whose tree never changes.
std::vector<net::NodeId> members_at_zero(harness::ScenarioConfig c) {
  c.faults = fault::FaultSpec{};
  c.measure_duration = Time::seconds(1);
  std::vector<net::NodeId> ids;
  for (const auto& d : harness::run_scenario(c).per_node) ids.push_back(d.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Under 10 % and 20 % churn with 10 s mean downtimes, every member at the
// end was a member at t = 0. With tracing compiled in, so is every node a
// repair attached or re-parented at any time, and every parent it chose.
void expect_no_outsider_joins(harness::Protocol p) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<net::NodeId> initial =
        members_at_zero(paper_grid(p, seed));
    ASSERT_LT(initial.size(), 80u) << "seed " << seed << " has no outsider";
    const auto initial_member = [&initial](std::uint64_t id) {
      return std::binary_search(initial.begin(), initial.end(),
                                static_cast<net::NodeId>(id));
    };
    for (double fraction : {0.10, 0.20}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", churn " +
                   std::to_string(fraction));
      harness::ScenarioConfig c = paper_grid(p, seed);
      c.faults.churn.node_fraction = fraction;
      c.faults.churn.mean_downtime_s = 10.0;
      c.trace.enabled = true;
      c.trace.type_mask = obs::trace_bit(obs::TraceType::kParentChange);
      std::vector<obs::TraceRecord> changes;
      c.trace.sink = [&changes](const obs::Tracer& t) {
        changes = t.snapshot();
      };
      const harness::RunMetrics m = harness::run_scenario(c);
      EXPECT_GT(m.node_deaths, 0u);
      for (const auto& d : m.per_node) {
        EXPECT_TRUE(initial_member(static_cast<std::uint64_t>(d.id)))
            << "node " << d.id << " joined from outside the tree";
      }
      for (const obs::TraceRecord& r : changes) {
        EXPECT_TRUE(initial_member(static_cast<std::uint64_t>(r.node)))
            << "node " << r.node << " attached at t=" << r.t_ns << " ns";
        EXPECT_TRUE(initial_member(r.b))
            << "parent " << r.b << " at t=" << r.t_ns << " ns";
      }
    }
  }
}

TEST(FaultPopulation, ChurnAdmitsNoOutsiderDtsSs) {
  expect_no_outsider_joins(harness::Protocol::kDtsSs);
}

TEST(FaultPopulation, ChurnAdmitsNoOutsiderPsm) {
#ifndef NDEBUG
  // A restarted PSM node starts its beacon schedule at the past setup
  // boundary, which fails Timer::arm_at's assert in a debug build (ROADMAP
  // item 1). Release clamps the arm to now.
  GTEST_SKIP() << "PSM restarts abort debug builds until their lifecycle "
                  "is fixed";
#endif
  expect_no_outsider_joins(harness::Protocol::kPsm);
}

TEST(FaultPopulation, ScheduledFaultOnOutsiderIsSkipped) {
  harness::ScenarioConfig c = paper_grid(harness::Protocol::kDtsSs, 1);
  c.measure_duration = Time::seconds(10);
  const std::vector<net::NodeId> initial = members_at_zero(c);
  net::NodeId outsider = 0;
  while (std::binary_search(initial.begin(), initial.end(), outsider)) {
    ++outsider;
  }
  ASSERT_LT(outsider, net::NodeId{80});
  c.faults.churn.scheduled = {{outsider, Time::seconds(1), Time::zero()}};
  const harness::RunMetrics m = harness::run_scenario(c);
  EXPECT_EQ(m.node_deaths, 0u);
  EXPECT_DOUBLE_EQ(m.downtime_s, 0.0);
  EXPECT_EQ(static_cast<std::size_t>(m.tree_members), initial.size());
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
