#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/scenario.h"
#include "src/harness/table.h"
#include "src/snap/metrics_codec.h"

namespace essat::harness {
namespace {

using util::Time;

// Short runs: these tests exercise the assembly/measurement plumbing, not
// the paper's full workloads (the integration tests cover behavior).
ScenarioConfig small_config(Protocol p) {
  ScenarioConfig c;
  c.protocol = p;
  c.deployment.num_nodes = 30;
  c.workload.base_rate_hz = 1.0;
  c.measure_duration = Time::seconds(20);
  c.workload.query_start_window = Time::seconds(3);
  c.seed = 5;
  return c;
}

TEST(Scenario, ProtocolNames) {
  EXPECT_STREQ(protocol_name(Protocol::kDtsSs), "DTS-SS");
  EXPECT_STREQ(protocol_name(Protocol::kSync), "SYNC");
  EXPECT_STREQ(protocol_name(Protocol::kSpan), "SPAN");
}

TEST(Scenario, ProducesSaneMetrics) {
  const RunMetrics m = run_scenario(small_config(Protocol::kDtsSs));
  EXPECT_GT(m.tree_members, 5);
  EXPECT_GT(m.avg_duty_cycle, 0.0);
  EXPECT_LT(m.avg_duty_cycle, 1.0);
  EXPECT_GT(m.avg_latency_s, 0.0);
  EXPECT_GT(m.epochs_measured, 10u);
  EXPECT_GT(m.delivery_ratio, 0.8);
  EXPECT_EQ(m.per_node.size(), static_cast<std::size_t>(m.tree_members));
  EXPECT_EQ(m.duty_by_rank.size(), static_cast<std::size_t>(m.max_rank) + 1);
}

TEST(Scenario, DeterministicForSameSeed) {
  const RunMetrics a = run_scenario(small_config(Protocol::kStsSs));
  const RunMetrics b = run_scenario(small_config(Protocol::kStsSs));
  EXPECT_DOUBLE_EQ(a.avg_duty_cycle, b.avg_duty_cycle);
  EXPECT_DOUBLE_EQ(a.avg_latency_s, b.avg_latency_s);
  EXPECT_EQ(a.reports_sent, b.reports_sent);
  EXPECT_EQ(a.mac_transmissions, b.mac_transmissions);
}

TEST(Scenario, DifferentSeedsDiffer) {
  auto c = small_config(Protocol::kNtsSs);
  const RunMetrics a = run_scenario(c);
  c.seed = 6;
  const RunMetrics b = run_scenario(c);
  EXPECT_NE(a.reports_sent, b.reports_sent);
}

TEST(Scenario, SpanReportsBackbone) {
  const RunMetrics m = run_scenario(small_config(Protocol::kSpan));
  EXPECT_GT(m.backbone_size, 0);
  EXPECT_LE(m.backbone_size, 30);
}

TEST(Scenario, FailureInjectionReducesMembership) {
  auto c = small_config(Protocol::kNtsSs);
  const RunMetrics healthy = run_scenario(c);
  // Kill three nodes mid-run (skip node ids that might be the root near
  // the centre by picking perimeter-biased low ids).
  c.faults.churn.scheduled = {
      {1, Time::seconds(8)}, {2, Time::seconds(8)}, {3, Time::seconds(9)}};
  const RunMetrics m = run_scenario(c);
  EXPECT_EQ(m.node_deaths, 3u);
  EXPECT_LE(m.delivery_ratio, healthy.delivery_ratio + 1e-9);
}

TEST(Scenario, ExtraQueriesAreRegistered) {
  auto c = small_config(Protocol::kDtsSs);
  query::Query surge;
  surge.period = Time::from_seconds(0.5);
  surge.phase = Time::seconds(15);
  c.workload.extra_queries = {surge};
  const RunMetrics with_surge = run_scenario(c);
  const RunMetrics without = run_scenario(small_config(Protocol::kDtsSs));
  EXPECT_GT(with_surge.reports_sent, without.reports_sent);
}

// The RunMetrics encoding covers every field, so byte equality is
// bit-identity of the runs.
std::vector<std::uint8_t> bytes_of(const RunMetrics& m) {
  return snap::run_metrics_to_bytes(m);
}

TEST(Trial, SteppedAdvanceMatchesStraightRun) {
  ScenarioConfig churn = small_config(Protocol::kDtsSs);
  churn.faults.churn.scheduled = {{4, Time::seconds(2), Time::seconds(3)},
                                  {9, Time::seconds(6)}};
  for (const ScenarioConfig& c : {small_config(Protocol::kNtsSs), churn}) {
    SCOPED_TRACE(c.faults.enabled() ? "churn" : "no faults");
    Trial trial{c};
    const Time setup_end = c.setup_duration;
    const Time measure_end = trial.measure_end();
    for (const Time t : {Time::zero(), setup_end - Time::nanoseconds(1),
                         setup_end, measure_end - c.measure_duration / 2,
                         measure_end}) {
      trial.advance_to(t);
    }
    EXPECT_EQ(bytes_of(trial.finish()), bytes_of(run_scenario(c)));
  }
}

TEST(LatencyCollector, ComputesPerEpochLatency) {
  LatencyCollector lc;
  query::Query q;
  q.id = 0;
  q.period = Time::seconds(1);
  q.phase = Time::seconds(10);
  // Epoch 0: two arrivals; latency = last - epoch start = 0.4 s.
  lc.on_root_arrival(q, 0, Time::from_seconds(10.2), 2);
  lc.on_root_arrival(q, 0, Time::from_seconds(10.4), 1);
  // Epoch 1: one arrival, 0.1 s.
  lc.on_root_arrival(q, 1, Time::from_seconds(11.1), 3);
  const auto s = lc.summarize(Time::seconds(0), Time::seconds(100),
                              Time::seconds(1), 3);
  EXPECT_EQ(s.epochs, 2u);
  EXPECT_NEAR(s.avg_s, (0.4 + 0.1) / 2.0, 1e-9);
  EXPECT_NEAR(s.max_s, 0.4, 1e-9);
  EXPECT_NEAR(s.delivery_ratio, 1.0, 1e-9);  // 3/3 both epochs
}

TEST(LatencyCollector, WindowFiltersEpochs) {
  LatencyCollector lc;
  query::Query q;
  q.id = 0;
  q.period = Time::seconds(1);
  q.phase = Time::zero();
  lc.on_root_arrival(q, 2, Time::from_seconds(2.5), 1);   // inside
  lc.on_root_arrival(q, 50, Time::from_seconds(50.1), 1); // inside
  lc.on_root_arrival(q, 98, Time::from_seconds(98.2), 1); // inside grace zone
  const auto s = lc.summarize(Time::seconds(1), Time::seconds(100),
                              Time::seconds(5), 1);
  EXPECT_EQ(s.epochs, 2u);  // epoch 98 excluded by the 5 s grace
}

TEST(Table, FormatsAlignedColumns) {
  Table t{{"x", "value"}};
  t.add_row({"1", "10.5"});
  t.add_row({"200", "3"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("x    value"), std::string::npos);
  EXPECT_NE(out.find("200"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.1234), "12.3");
  EXPECT_EQ(fmt(10.0, 1), "10.0");
}

}  // namespace
}  // namespace essat::harness
