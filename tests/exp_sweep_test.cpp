#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/aggregate.h"
#include "src/exp/sinks.h"
#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/harness/runner.h"
#include "src/harness/scenario.h"

namespace essat::exp {
namespace {

// A cheap deterministic stand-in for run_scenario: every metric is a pure
// function of (seed, rate), so engine-level determinism is isolated from
// simulator cost.
harness::RunMetrics stub_run(const harness::ScenarioConfig& c) {
  harness::RunMetrics m;
  const double s = static_cast<double>(c.seed);
  m.avg_duty_cycle = 0.01 * s + c.workload.base_rate_hz;
  m.avg_latency_s = 1.0 / (s + 1.0);
  m.p95_latency_s = 2.0 / (s + 1.0);
  m.delivery_ratio = 1.0 - 0.001 * s;
  m.phase_update_bits_per_report = 0.5 * s;
  m.mac_send_failures = c.seed % 7;
  m.duty_by_rank = {0.1 * s, 0.2 * s, 0.3 * s};
  return m;
}

// A quick-to-simulate scenario for end-to-end determinism checks.
harness::ScenarioConfig small_scenario() {
  harness::ScenarioConfig c;
  c.deployment.num_nodes = 12;
  c.deployment.area_m = 250.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 250.0;
  c.setup_duration = util::Time::seconds(2);
  c.workload.query_start_window = util::Time::seconds(1);
  c.measure_duration = util::Time::seconds(3);
  c.latency_grace = util::Time::seconds(1);
  c.seed = 7;
  return c;
}

void expect_stat_identical(const util::RunningStat& a,
                           const util::RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());          // exact: bit-identical requirement
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_identical(const harness::AveragedMetrics& a,
                      const harness::AveragedMetrics& b) {
  expect_stat_identical(a.duty_cycle, b.duty_cycle);
  expect_stat_identical(a.latency_s, b.latency_s);
  expect_stat_identical(a.p95_latency_s, b.p95_latency_s);
  expect_stat_identical(a.delivery_ratio, b.delivery_ratio);
  expect_stat_identical(a.phase_update_bits, b.phase_update_bits);
  expect_stat_identical(a.mac_send_failures, b.mac_send_failures);
  expect_stat_identical(a.channel_dropped, b.channel_dropped);
  ASSERT_EQ(a.duty_by_rank.size(), b.duty_by_rank.size());
  for (std::size_t r = 0; r < a.duty_by_rank.size(); ++r) {
    expect_stat_identical(a.duty_by_rank[r], b.duty_by_rank[r]);
  }
  EXPECT_EQ(a.last_run.avg_duty_cycle, b.last_run.avg_duty_cycle);
  EXPECT_EQ(a.last_run.avg_latency_s, b.last_run.avg_latency_s);
}

// ------------------------------------------------------------ SweepSpec

TEST(SweepSpec, GridExpansionCrossesAxesRowMajor) {
  harness::ScenarioConfig base;
  SweepSpec spec(base);
  spec.runs(5)
      .axis("rate", &harness::ScenarioConfig::workload,
            &harness::WorkloadSpec::base_rate_hz, {1.0, 2.0, 3.0, 4.0})
      .axis("nodes", &harness::ScenarioConfig::deployment,
            &net::DeploymentSpec::num_nodes, {10, 20});

  EXPECT_EQ(spec.num_axes(), 2u);
  EXPECT_EQ(spec.num_points(), 8u);
  EXPECT_EQ(spec.runs_per_point(), 5);
  ASSERT_EQ(spec.axis_names().size(), 2u);
  EXPECT_EQ(spec.axis_names()[0], "rate");
  EXPECT_EQ(spec.axis_names()[1], "nodes");

  const auto points = spec.points();
  ASSERT_EQ(points.size(), 8u);
  // Row-major: first axis slowest.
  EXPECT_EQ(points[0].labels, (std::vector<std::string>{"1", "10"}));
  EXPECT_EQ(points[1].labels, (std::vector<std::string>{"1", "20"}));
  EXPECT_EQ(points[2].labels, (std::vector<std::string>{"2", "10"}));
  EXPECT_EQ(points[7].labels, (std::vector<std::string>{"4", "20"}));
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].config.workload.base_rate_hz,
              1.0 + static_cast<double>(i / 2));
    EXPECT_EQ(points[i].config.deployment.num_nodes, i % 2 == 0 ? 10 : 20);
  }
}

TEST(SweepSpec, NoAxesYieldsSingleBasePoint) {
  harness::ScenarioConfig base;
  base.seed = 42;
  SweepSpec spec(base);
  EXPECT_EQ(spec.num_points(), 1u);
  const auto points = spec.points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].labels.empty());
  EXPECT_EQ(points[0].config.seed, 42u);
}

TEST(SweepSpec, ProtocolAxisUsesProtocolNames) {
  SweepSpec spec{harness::ScenarioConfig{}};
  spec.axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kPsm});
  const auto points = spec.points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].labels[0], "DTS-SS");
  EXPECT_EQ(points[1].labels[0], "PSM");
  EXPECT_EQ(points[0].config.protocol, harness::Protocol::kDtsSs);
  EXPECT_EQ(points[1].config.protocol, harness::Protocol::kPsm);
}

// ------------------------------------------------------------ SweepRunner

TEST(SweepRunner, DefaultJobsHonoursEnvOverride) {
  ::setenv("ESSAT_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3);
  ::setenv("ESSAT_JOBS", "0", 1);
  EXPECT_GE(default_jobs(), 1);  // invalid values fall back to hardware
  ::unsetenv("ESSAT_JOBS");
  EXPECT_GE(default_jobs(), 1);
}

// `jobs` bounds the worker threads, and each trial runs exactly once.
TEST(SweepRunner, JobsBoundTheWorkerThreads) {
  for (int jobs : {1, 3}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    harness::ScenarioConfig base;
    base.seed = 10;
    SweepSpec spec(base);
    spec.runs(20);  // one point: trial seeds 10..29

    std::mutex mu;
    std::multiset<std::uint64_t> seeds;
    std::set<std::thread::id> threads;
    SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.run_fn = [&](const harness::ScenarioConfig& c) {
      std::lock_guard<std::mutex> lock(mu);
      seeds.insert(c.seed);
      threads.insert(std::this_thread::get_id());
      return stub_run(c);
    };
    SweepRunner(opts).run(spec);
    ASSERT_EQ(seeds.size(), 20u);
    for (std::uint64_t seed = 10; seed < 30; ++seed) {
      EXPECT_EQ(seeds.count(seed), 1u);
    }
    EXPECT_LE(threads.size(), static_cast<std::size_t>(jobs));
  }
}

TEST(SweepRunner, ParallelIdenticalToSerialOnStub) {
  harness::ScenarioConfig base;
  base.seed = 100;
  auto make_spec = [&] {
    SweepSpec spec(base);
    spec.runs(5)
        .axis_rate({1.0, 2.0, 3.0, 4.0})
        .axis("nodes", &harness::ScenarioConfig::deployment,
              &net::DeploymentSpec::num_nodes, {10, 20});
    return spec;  // 8 points x 5 runs
  };

  SweepRunner::Options serial;
  serial.jobs = 1;
  serial.run_fn = stub_run;
  SweepRunner::Options par;
  par.jobs = 4;
  par.run_fn = stub_run;

  const auto a = SweepRunner(serial).run(make_spec());
  const auto b = SweepRunner(par).run(make_spec());
  ASSERT_EQ(a.size(), 8u);
  ASSERT_EQ(b.size(), 8u);
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].point.labels, b[p].point.labels);
    expect_identical(a[p].metrics, b[p].metrics);
  }
}

TEST(SweepRunner, TrialSeedsAreBasePlusRepetition) {
  harness::ScenarioConfig base;
  base.seed = 50;
  SweepSpec spec(base);
  spec.runs(5).axis_rate({1.0, 2.0});

  std::mutex mu;
  std::set<std::uint64_t> seeds;
  SweepRunner::Options opts;
  opts.jobs = 4;
  opts.run_fn = [&](const harness::ScenarioConfig& c) {
    std::lock_guard<std::mutex> lock(mu);
    seeds.insert(c.seed);
    return stub_run(c);
  };
  SweepRunner(opts).run(spec);
  // Both points share the base seed, so the union is 50..54.
  EXPECT_EQ(seeds, (std::set<std::uint64_t>{50, 51, 52, 53, 54}));
}

TEST(SweepRunner, ReportsProgressAndFeedsSinksInPointOrder) {
  SweepSpec spec{harness::ScenarioConfig{}};
  spec.runs(3).axis_rate({1.0, 2.0});

  std::size_t last_done = 0, last_total = 0;
  SweepRunner::Options opts;
  opts.jobs = 2;
  opts.run_fn = stub_run;
  opts.progress = [&](std::size_t done, std::size_t total) {
    last_done = done;
    last_total = total;
  };

  struct OrderSink : ResultSink {
    std::vector<std::size_t> order;
    bool began = false, finished = false;
    void begin(const std::vector<std::string>& names) override {
      began = true;
      EXPECT_EQ(names, (std::vector<std::string>{"rate (Hz)"}));
    }
    void on_point(const PointResult& r) override { order.push_back(r.point.index); }
    void finish() override { finished = true; }
  } sink;

  SweepRunner(opts).run(spec, {&sink});
  EXPECT_EQ(last_done, 6u);
  EXPECT_EQ(last_total, 6u);
  EXPECT_TRUE(sink.began);
  EXPECT_TRUE(sink.finished);
  EXPECT_EQ(sink.order, (std::vector<std::size_t>{0, 1}));
}

TEST(SweepRunner, TrialExceptionIsRethrown) {
  SweepSpec spec{harness::ScenarioConfig{}};
  spec.runs(2).axis_rate({1.0, 2.0});
  SweepRunner::Options opts;
  opts.jobs = 2;
  opts.run_fn = [](const harness::ScenarioConfig&) -> harness::RunMetrics {
    throw std::runtime_error("boom");
  };
  EXPECT_THROW(SweepRunner(opts).run(spec), std::runtime_error);
}

// Records every call a sink receives, in order.
struct RecordingSink : ResultSink {
  std::vector<std::string> calls;
  void begin(const std::vector<std::string>&) override {
    calls.push_back("begin");
  }
  void on_point(const PointResult& r) override {
    calls.push_back("point " + std::to_string(r.point.index));
  }
  void finish() override { calls.push_back("finish"); }
};

// A failed trial must not discard finished work: every other complete
// point still reaches the sinks, in point order, before finish() and the
// rethrow.
TEST(SweepRunner, FailedTrialStillFlushesCompletePoints) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    SweepSpec spec{harness::ScenarioConfig{}};  // base seed 1
    spec.runs(2).axis_rate({1.0, 2.0, 3.0, 4.0});
    SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.run_fn = [](const harness::ScenarioConfig& c) {
      if (c.workload.base_rate_hz == 2.0 && c.seed == 2) {
        throw std::runtime_error("boom");  // point 1, repetition 1
      }
      return stub_run(c);
    };
    RecordingSink sink;
    EXPECT_THROW(SweepRunner(opts).run(spec, {&sink}), std::runtime_error);
    const std::vector<std::string> expected{"begin", "point 0", "point 2",
                                            "point 3", "finish"};
    EXPECT_EQ(sink.calls, expected);
  }
}

// Points stream out as they complete instead of after the whole sweep: a
// serial sweep has emitted every earlier point by the time a point's first
// trial starts.
TEST(SweepRunner, EmitsEachPointWhenItsRepetitionsFinish) {
  SweepSpec spec{harness::ScenarioConfig{}};  // base seed 1
  spec.runs(2).axis_rate({1.0, 2.0, 3.0});
  RecordingSink sink;
  std::vector<std::size_t> calls_at_first_trial;
  SweepRunner::Options opts;
  opts.jobs = 1;
  opts.run_fn = [&](const harness::ScenarioConfig& c) {
    if (c.seed == 1) calls_at_first_trial.push_back(sink.calls.size());
    return stub_run(c);
  };
  SweepRunner(opts).run(spec, {&sink});
  // "begin", then one more point per point already finished.
  EXPECT_EQ(calls_at_first_trial, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(sink.calls.back(), "finish");
}

// The acceptance check: >= 8 points x 5 runs through the real simulator,
// 4 threads vs 1 thread, per-point AveragedMetrics bit-identical.
TEST(SweepRunner, ParallelIdenticalToSerialOnRealScenario) {
  auto make_spec = [] {
    SweepSpec spec(small_scenario());
    spec.runs(5)
        .axis_rate({0.5, 1.0, 2.0, 4.0})
        .axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kNtsSs});
    return spec;  // 8 points x 5 runs = 40 trials
  };

  SweepRunner::Options serial;
  serial.jobs = 1;
  SweepRunner::Options par;
  par.jobs = 4;

  const auto a = SweepRunner(serial).run(make_spec());
  const auto b = SweepRunner(par).run(make_spec());
  ASSERT_EQ(a.size(), 8u);
  ASSERT_EQ(b.size(), 8u);
  for (std::size_t p = 0; p < a.size(); ++p) {
    SCOPED_TRACE("point " + std::to_string(p));
    expect_identical(a[p].metrics, b[p].metrics);
    // Sanity: the runs measured something.
    EXPECT_EQ(a[p].metrics.duty_cycle.count(), 5u);
    EXPECT_GT(a[p].metrics.duty_cycle.mean(), 0.0);
  }
}

// Each grid point must match a hand-rolled serial loop over that point's
// config with the documented seed = base + i advance; the figure benches
// read their tables from these per-point aggregates.
TEST(SweepRunner, EachPointMatchesManualSerialLoop) {
  SweepSpec spec(small_scenario());
  spec.runs(3).axis_protocol(
      {harness::Protocol::kDtsSs, harness::Protocol::kNtsSs});
  const std::vector<SweepPoint> points = spec.points();
  const auto results = SweepRunner().run(spec);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t p = 0; p < results.size(); ++p) {
    SCOPED_TRACE("point " + std::to_string(p));
    Aggregator agg;
    for (int i = 0; i < 3; ++i) {
      harness::ScenarioConfig c = points[p].config;
      c.seed = points[p].config.seed + static_cast<std::uint64_t>(i);
      agg.add(harness::run_scenario(c));
    }
    expect_identical(results[p].metrics, agg.result());
    EXPECT_GE(results[p].metrics.duty_ci90(), 0.0);
    EXPECT_FALSE(results[p].metrics.duty_by_rank.empty());
  }
}

// ------------------------------------------------------------ sinks

PointResult known_point() {
  PointResult r;
  r.point.index = 0;
  r.point.labels = {"1.5", "DTS-SS"};
  harness::RunMetrics m;
  m.avg_duty_cycle = 0.0625;
  m.avg_latency_s = 0.125;
  m.p95_latency_s = 0.25;
  m.delivery_ratio = 0.96875;
  m.phase_update_bits_per_report = 0.75;
  m.mac_send_failures = 3;
  m.channel_dropped_by_model = 4;
  Aggregator agg;
  agg.add(m);
  m.avg_duty_cycle = 0.09375;
  m.avg_latency_s = 0.1875;
  agg.add(m);
  r.metrics = agg.take();
  return r;
}

TEST(JsonLinesSink, RoundTripsKnownAggregate) {
  const PointResult r = known_point();
  std::ostringstream os;
  JsonLinesSink sink(os);
  sink.begin({"rate", "protocol"});
  sink.on_point(r);
  sink.finish();

  const std::string out = os.str();
  const std::string line = out.substr(0, out.find('\n'));
  EXPECT_NE(line.find("\"labels\":{\"rate\":\"1.5\",\"protocol\":\"DTS-SS\"}"),
            std::string::npos);

  auto field = [&](const std::string& name) {
    const std::string key = "\"" + name + "\":";
    const auto pos = line.find(key);
    EXPECT_NE(pos, std::string::npos) << "missing field " << name;
    return std::strtod(line.c_str() + pos + key.size(), nullptr);
  };
  // %.17g output parses back to the exact double.
  EXPECT_EQ(field("point"), 0.0);
  EXPECT_EQ(field("runs"), 2.0);
  EXPECT_EQ(field("duty_mean"), r.metrics.duty_cycle.mean());
  EXPECT_EQ(field("duty_ci90"), r.metrics.duty_ci90());
  EXPECT_EQ(field("latency_mean"), r.metrics.latency_s.mean());
  EXPECT_EQ(field("latency_ci90"), r.metrics.latency_ci90());
  EXPECT_EQ(field("p95_latency"), r.metrics.p95_latency_s.mean());
  EXPECT_EQ(field("delivery_mean"), r.metrics.delivery_ratio.mean());
  EXPECT_EQ(field("phase_bits_mean"), r.metrics.phase_update_bits.mean());
  EXPECT_EQ(field("send_failures"), r.metrics.mac_send_failures.mean());
  EXPECT_EQ(field("model_drops"), 4.0);
}

// Regression: tab/CR (and every other control character) in an axis label
// used to pass through raw, producing invalid JSON.
TEST(JsonLinesSink, EscapesControlCharactersInLabels) {
  PointResult r = known_point();
  r.point.labels = {"a\tb\rc\x01" "d", "e\"f\\g"};
  std::ostringstream os;
  JsonLinesSink sink(os);
  sink.begin({"bad\naxis", "quoted"});
  sink.on_point(r);
  sink.finish();

  const std::string line = os.str();
  // No raw control characters anywhere in the output line.
  for (char c : line) {
    if (c == '\n') continue;  // the record separator itself
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_NE(line.find("\"bad\\naxis\":\"a\\tb\\rc\\u0001d\""), std::string::npos);
  EXPECT_NE(line.find("\"quoted\":\"e\\\"f\\\\g\""), std::string::npos);
}

// Regression: the progress ticker used to emit a \r-rewrite line for every
// trial even when output was redirected, flooding CI logs. Non-TTY streams
// get one milestone line per completed decile instead.
TEST(ProgressReporter, NonTtyPrintsMilestonesNotRewrites) {
  std::ostringstream os;
  ProgressReporter reporter(os, "tag");  // ostringstream: never a TTY
  for (std::size_t done = 1; done <= 40; ++done) reporter.on_trial_done(done, 40);

  const std::string out = os.str();
  EXPECT_EQ(out.find('\r'), std::string::npos);
  // One line per decile: 10%, 20%, ..., 100%.
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 10u);
  EXPECT_NE(out.find("[tag] trials 4/40 (10%)"), std::string::npos);
  EXPECT_NE(out.find("[tag] trials 40/40 (100%)"), std::string::npos);
}

TEST(ProgressReporter, ForcedTtyKeepsInPlaceRewrites) {
  std::ostringstream os;
  ProgressReporter reporter(os, "tag", /*tty=*/true);
  reporter.on_trial_done(1, 2);
  reporter.on_trial_done(2, 2);
  const std::string out = os.str();
  EXPECT_NE(out.find("\r[tag] trials 1/2"), std::string::npos);
  EXPECT_NE(out.find("\r[tag] trials 2/2\n"), std::string::npos);
}

}  // namespace
}  // namespace essat::exp
