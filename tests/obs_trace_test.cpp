// Tests for the observability layer (src/obs): record layout, ring
// accounting, the type mask, the zero-overhead discipline of the disabled
// path, provenance threading, the conservation oracle across a protocol x
// topology x rate grid and on lossy links, drops at nodes outside the tree
// attributed as detached, traced trials matching untraced ones byte for byte,
// byte-identical traces across sweep thread counts, and the exporters. With
// tracing compiled out (-DESSAT_TRACING=OFF) the traced-trial tests check
// instead that a traced config runs untraced.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/alloc_hook.h"
#include "src/essat.h"
#include "src/snap/metrics_codec.h"
#include "src/snap/serializer.h"

namespace essat {
namespace {

using obs::DropReason;
using obs::TraceRecord;
using obs::Tracer;
using obs::TraceSpec;
using obs::TraceType;
using util::Time;

TraceSpec basic_spec() {
  TraceSpec spec;
  spec.enabled = true;
  return spec;
}

harness::ScenarioConfig small_config() {
  harness::ScenarioConfig c;
  c.protocol = harness::Protocol::kDtsSs;
  c.deployment.num_nodes = 30;
  c.deployment.area_m = 300.0;
  c.deployment.max_tree_dist_m = 300.0;
  c.workload.base_rate_hz = 2.0;
  c.measure_duration = Time::seconds(10);
  c.seed = 7;
  return c;
}

// The mid-measurement state of every component, then the finished trial's
// metrics.
std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>
state_and_metrics(const harness::ScenarioConfig& config) {
  harness::Trial trial{config};
  trial.advance_to(trial.measure_end() - config.measure_duration / 2);
  snap::Serializer state;
  trial.save_state(state);
  return std::make_pair(state.take(),
                        snap::run_metrics_to_bytes(trial.finish()));
}

// With tracing compiled out, Trial warns and runs a traced config untraced:
// the sink never runs, none of `exports` (the config's expanded export
// paths) is written, and the state and metrics are the untraced run's byte
// for byte.
void expect_runs_untraced(harness::ScenarioConfig config,
                          const std::vector<std::string>& exports = {}) {
  ASSERT_FALSE(obs::kTracingCompiledIn);
  for (const std::string& path : exports) std::remove(path.c_str());
  int sink_calls = 0;
  config.trace.sink = [&sink_calls](const Tracer&) { ++sink_calls; };
  harness::ScenarioConfig untraced_cfg = config;
  untraced_cfg.trace = TraceSpec{};

  const auto traced = state_and_metrics(config);
  const auto untraced = state_and_metrics(untraced_cfg);
  EXPECT_EQ(sink_calls, 0) << "the sink ran without a tracer";
  for (const std::string& path : exports) {
    EXPECT_FALSE(std::ifstream(path).good()) << path << " was written";
  }
  EXPECT_EQ(traced.first, untraced.first) << "trial state differs";
  EXPECT_EQ(traced.second, untraced.second) << "RunMetrics differ";
}

// ------------------------------------------------------------ records

TEST(TraceRecord, LayoutAndAccessors) {
  static_assert(sizeof(TraceRecord) == 32, "ring stride");
  const auto arg16 = static_cast<std::uint16_t>(
      static_cast<unsigned>(DropReason::kCaptured) << 8 | 3u);
  const TraceRecord r = TraceRecord::make(TraceType::kChanDrop,
                                          Time::seconds(2), 5, arg16, 77, 88);
  EXPECT_EQ(r.t_ns, 2'000'000'000);
  EXPECT_EQ(r.trace_type(), TraceType::kChanDrop);
  EXPECT_EQ(r.drop_reason(), DropReason::kCaptured);
  EXPECT_EQ(r.packet_type(), 3);
  EXPECT_EQ(r.a, 77u);
  EXPECT_EQ(r.b, 88u);
}

TEST(Tracer, RingOverwritesOldestAndCountsIt) {
  TraceSpec spec = basic_spec();
  spec.buffer_cap = 64;
  Tracer tracer(spec);
  for (int i = 0; i < 100; ++i) {
    tracer.emit(TraceType::kMacEnqueue, Time::microseconds(i), 1, 0,
                static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(tracer.capacity(), 64u);
  EXPECT_EQ(tracer.size(), 64u);
  EXPECT_EQ(tracer.emitted(), 100u);
  EXPECT_EQ(tracer.overwritten(), 36u);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 64u);
  // Oldest-first, and the oldest surviving record is #36.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].a, 36 + i);
  }
}

TEST(Tracer, FiltersByType) {
  TraceSpec spec = basic_spec();
  spec.type_mask = obs::trace_bit(TraceType::kMacEnqueue);
  Tracer tracer(spec);

  auto emit = [&](TraceType t, std::int32_t node) {
    tracer.emit(t, Time::seconds(1), node, 0, 0, 0);
  };
  emit(TraceType::kMacSendOk, 2);   // wrong type
  emit(TraceType::kMacEnqueue, 4);  // passes
  emit(TraceType::kEvPush, -1);     // wrong type
  emit(TraceType::kMacEnqueue, -1); // passes
  EXPECT_EQ(tracer.emitted(), 2u);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].node, 4);
  EXPECT_EQ(records[1].node, -1);
}

// ------------------------------------------------------------ zero overhead

TEST(TracingOverhead, ArgumentsNotEvaluatedWithoutTracer) {
  sim::Simulator sim;  // no tracer installed
  int evaluations = 0;
  ESSAT_TRACE(sim, TraceType::kMacEnqueue, 1, 0,
              static_cast<std::uint64_t>(++evaluations), 0);
  EXPECT_EQ(evaluations, 0) << "disabled tracing must not evaluate arguments";
}

TEST(TracingOverhead, EmitNeverAllocates) {
  TraceSpec spec = basic_spec();
  spec.buffer_cap = 1024;
  Tracer tracer(spec);
  tracer.emit(TraceType::kMacEnqueue, Time::zero(), 0, 0, 0, 0);  // warm
  bench_alloc::AllocationCounter scope;
  for (int i = 0; i < 100'000; ++i) {
    tracer.emit(TraceType::kMacEnqueue, Time::microseconds(i), i & 7, 0,
                static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(scope.count(), 0u) << "emit() allocated on the hot path";
}

TEST(TracingOverhead, DisabledPathIsAPredictableBranch) {
  sim::Simulator sim;  // no tracer: every site costs one null test
  const int n = 10'000'000;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    ESSAT_TRACE(sim, TraceType::kMacEnqueue, 1, 0,
                static_cast<std::uint64_t>(++sink), 0);
  }
  const double ns_per =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                               t0)
          .count() /
      n;
  EXPECT_EQ(sink, 0u);
  // Generous bound (a real branch costs well under 1 ns; sanitizer builds
  // inflate it): the point is that the disabled site is nanoseconds, not a
  // call into formatting or I/O.
  EXPECT_LT(ns_per, 100.0);
}

// ------------------------------------------------------------ lifecycle

TEST(TracedRun, ReconstructsReportLifecycles) {
  harness::ScenarioConfig config = small_config();
  config.trace = basic_spec();
  if (!obs::kTracingCompiledIn) {
    expect_runs_untraced(config);
    return;
  }
  std::vector<TraceRecord> records;
  config.trace.sink = [&](const Tracer& tracer) {
    EXPECT_EQ(tracer.overwritten(), 0u);
    records = tracer.snapshot();
  };
  harness::run_scenario(config);
  ASSERT_FALSE(records.empty());

  // A report keeps its provenance id from submission to the root, and an
  // aggregation fold names a child report submitted before it.
  std::unordered_set<std::uint64_t> submitted;
  std::size_t root_deliveries = 0;
  std::size_t folds = 0;
  for (const TraceRecord& r : records) {
    switch (r.trace_type()) {
      case TraceType::kReportSubmit:
        EXPECT_NE(r.a, 0u);
        submitted.insert(r.a);
        break;
      case TraceType::kReportFold:
        ++folds;
        EXPECT_EQ(submitted.count(r.a), 1u)
            << "fold of child " << r.a << " at t=" << r.t_ns
            << " ns precedes its submission";
        break;
      case TraceType::kRootDeliver:
        ++root_deliveries;
        EXPECT_EQ(submitted.count(r.a), 1u)
            << "root delivery of " << r.a << " at t=" << r.t_ns
            << " ns names no submitted report";
        break;
      default:
        break;
    }
  }
  EXPECT_GT(root_deliveries, 0u) << "no report reached the root";
  EXPECT_GT(folds, 0u) << "no report was aggregated";
}

// Drop counts of a lossy trace by reason, after checking that every `model`
// drop names a receiver whose answer could matter: it was listening (its
// last chan_listen) or a reception was in progress there. A reception of
// tx X at node n spans X's arrival to its chan_deliver, or to a collision
// or abandoned chan_drop recorded after the arrival (a collision recorded
// at the arrival is the overlapping frame's own loss).
std::vector<std::uint64_t> model_drops_where_decodable(
    const std::vector<TraceRecord>& records, Time propagation_delay,
    const std::string& cell) {
  std::unordered_map<std::uint64_t, std::int64_t> arrival_ns;
  for (const TraceRecord& r : records) {
    if (r.trace_type() == TraceType::kChanTxBegin) {
      arrival_ns[r.a] = r.t_ns + propagation_delay.ns();
    }
  }
  struct Reception {
    std::uint64_t tx;
    std::int64_t begin_ns, end_ns;
  };
  std::unordered_map<std::int32_t, std::vector<Reception>> receptions;
  for (const TraceRecord& r : records) {
    const TraceType type = r.trace_type();
    const bool ends_reception =
        type == TraceType::kChanDeliver ||
        (type == TraceType::kChanDrop &&
         (r.drop_reason() == DropReason::kCollision ||
          r.drop_reason() == DropReason::kAbandoned));
    const auto it = arrival_ns.find(r.a);
    if (ends_reception && it != arrival_ns.end() && r.t_ns > it->second) {
      receptions[r.node].push_back({r.a, it->second, r.t_ns});
    }
  }
  std::unordered_map<std::int32_t, bool> listening;
  std::vector<std::uint64_t> by_reason(16, 0);
  for (const TraceRecord& r : records) {
    if (r.trace_type() == TraceType::kChanListen) {
      listening[r.node] = r.arg16 != 0;
      continue;
    }
    if (r.trace_type() != TraceType::kChanDrop) continue;
    ++by_reason[static_cast<std::size_t>(r.drop_reason())];
    if (r.drop_reason() != DropReason::kModel || listening[r.node]) continue;
    bool in_progress = false;
    for (const Reception& rx : receptions[r.node]) {
      in_progress |= rx.tx != r.a && rx.begin_ns <= r.t_ns && r.t_ns <= rx.end_ns;
    }
    EXPECT_TRUE(in_progress)
        << cell << ": node " << r.node << " dropped tx " << r.a << " at t="
        << r.t_ns << " ns as model while it could not decode";
  }
  return by_reason;
}

TEST(TracedRun, ConservationHoldsAcrossProtocolTopologyRateGrid) {
  const harness::Protocol protocols[] = {harness::Protocol::kDtsSs,
                                         harness::Protocol::kNtsSs};
  const net::TopologyKind topologies[] = {net::TopologyKind::kUniform,
                                          net::TopologyKind::kGrid};
  const double rates[] = {1.0, 4.0};
  for (auto protocol : protocols) {
    for (auto kind : topologies) {
      for (double rate : rates) {
        harness::ScenarioConfig config = small_config();
        config.protocol = protocol;
        config.deployment.kind = kind;
        config.workload.base_rate_hz = rate;
        config.measure_duration = Time::seconds(5);
        config.trace = basic_spec();
        if (!obs::kTracingCompiledIn) {
          expect_runs_untraced(config);
          continue;
        }
        bool checked = false;
        config.trace.sink = [&](const Tracer& tracer) {
          ASSERT_EQ(tracer.overwritten(), 0u);
          const auto report = obs::check_conservation(tracer.snapshot());
          EXPECT_TRUE(report.ok)
              << protocol_name(protocol) << " x " << topology_kind_name(kind)
              << " x " << rate << " Hz: " << report.detail;
          EXPECT_GT(report.transmissions, 0u);
          checked = true;
        };
        harness::run_scenario(config);
        EXPECT_TRUE(checked);
      }
    }
  }

  // Lossy cells. The channel asks the link model only where its answer can
  // matter, so every in-range receiver must still report each frame once,
  // and a receiver the model was not asked about drops for its real cause.
  harness::ScenarioConfig shadowing_etx = small_config();
  shadowing_etx.channel_model.kind = net::LinkModelKind::kLogNormalShadowing;
  shadowing_etx.routing.policy = "etx";
  harness::ScenarioConfig bursty = small_config();
  bursty.channel_model.kind = net::LinkModelKind::kGilbertElliott;
  bursty.channel_model.gilbert_base = net::LinkModelKind::kLogNormalShadowing;
  for (harness::ScenarioConfig config : {shadowing_etx, bursty}) {
    const std::string cell = config.channel_model.label() + " x " +
                             config.routing.policy;
    config.measure_duration = Time::seconds(5);
    config.trace = basic_spec();
    if (!obs::kTracingCompiledIn) {
      expect_runs_untraced(config);
      continue;
    }
    bool checked = false;
    config.trace.sink = [&](const Tracer& tracer) {
      ASSERT_EQ(tracer.overwritten(), 0u);
      const auto records = tracer.snapshot();
      const auto report = obs::check_conservation(records);
      EXPECT_TRUE(report.ok) << cell << ": " << report.detail;
      EXPECT_GT(report.transmissions, 0u) << cell;
      const auto drops = model_drops_where_decodable(
          records, config.channel_params.propagation_delay, cell);
      EXPECT_GT(drops[static_cast<std::size_t>(DropReason::kModel)], 0u)
          << cell << ": the model dropped nothing";
      EXPECT_GT(drops[static_cast<std::size_t>(DropReason::kRadioOff)], 0u)
          << cell << ": no frame reached a sleeping radio";
      checked = true;
    };
    harness::run_scenario(config);
    EXPECT_TRUE(checked) << cell;
  }
}

// A grid whose corners lie beyond the tree cap. Nodes outside the tree
// have no radio, so every arrival there is dropped as detached and none is
// delivered; no member's drop is detached; conservation still balances.
TEST(TracedRun, OutsidersDropEveryArrivalAsDetached) {
  harness::ScenarioConfig config = small_config();
  config.deployment.kind = net::TopologyKind::kGrid;
  config.deployment.max_tree_dist_m = 120.0;
  config.measure_duration = Time::seconds(5);
  config.trace = basic_spec();
  if (!obs::kTracingCompiledIn) {
    expect_runs_untraced(config);
    return;
  }
  std::vector<TraceRecord> records;
  config.trace.sink = [&](const Tracer& tracer) {
    EXPECT_EQ(tracer.overwritten(), 0u);
    records = tracer.snapshot();
  };
  const harness::RunMetrics m = harness::run_scenario(config);
  std::vector<char> member(30, 0);
  for (const auto& d : m.per_node) member[static_cast<std::size_t>(d.id)] = 1;
  ASSERT_LT(m.per_node.size(), 30u) << "the grid has no outsider";

  std::size_t detached = 0;
  for (const TraceRecord& r : records) {
    const TraceType type = r.trace_type();
    if (type != TraceType::kChanDeliver && type != TraceType::kChanDrop) {
      continue;
    }
    const bool insider = member.at(static_cast<std::size_t>(r.node)) != 0;
    if (type == TraceType::kChanDeliver) {
      EXPECT_TRUE(insider) << "delivery at outsider " << r.node;
    } else {
      EXPECT_EQ(r.drop_reason() == DropReason::kDetached, !insider)
          << "node " << r.node << " dropped tx " << r.a << " as "
          << obs::drop_reason_name(r.drop_reason());
      if (!insider) ++detached;
    }
  }
  EXPECT_GT(detached, 0u) << "no frame reached an outsider";
  const auto report = obs::check_conservation(records);
  EXPECT_TRUE(report.ok) << report.detail;
}

// ------------------------------------------------------------ determinism

TEST(TracedRun, MetricsBitIdenticalToUntracedRun) {
  harness::ScenarioConfig base = small_config();
  // One crash and restart, so fault records are traced too.
  base.faults.churn.scheduled = {{3, Time::seconds(1), Time::seconds(1)}};

  harness::ScenarioConfig traced_cfg = base;
  traced_cfg.trace = basic_spec();  // every record type
  const std::string dir = ::testing::TempDir();
  traced_cfg.trace.perfetto_path = dir + "/obs_identical_{seed}.perfetto.json";
  traced_cfg.trace.jsonl_path = dir + "/obs_identical_{seed}.jsonl";
  if (!obs::kTracingCompiledIn) {
    expect_runs_untraced(traced_cfg, {dir + "/obs_identical_7.perfetto.json",
                                      dir + "/obs_identical_7.jsonl"});
    return;
  }
  std::uint64_t recorded = 0;
  traced_cfg.trace.sink = [&](const Tracer& tracer) {
    recorded = tracer.emitted();
  };

  const auto untraced = state_and_metrics(base);
  const auto traced = state_and_metrics(traced_cfg);
  EXPECT_GT(recorded, 0u) << "the traced trial recorded nothing";

  // Tracing only records: byte for byte, not within a tolerance.
  EXPECT_EQ(traced.first, untraced.first) << "trial state differs";
  EXPECT_EQ(traced.second, untraced.second) << "RunMetrics differ";
}

TEST(TracedSweep, TraceByteIdenticalAcrossJobCounts) {
  harness::ScenarioConfig base = small_config();
  base.measure_duration = Time::seconds(5);

  std::mutex mu;
  std::vector<TraceRecord> captured;
  int sink_calls = 0;
  TraceSpec traced = basic_spec();
  traced.sink = [&](const Tracer& tracer) {
    std::lock_guard<std::mutex> lock(mu);
    captured = tracer.snapshot();
    ++sink_calls;
  };
  // Four seeds, the third traced: at 8 jobs the others run beside it.
  std::vector<std::pair<std::string, exp::SweepSpec::Apply>> seeds;
  for (std::uint64_t i = 0; i < 4; ++i) {
    seeds.emplace_back(std::to_string(i),
                       [i, &traced](harness::ScenarioConfig& c) {
                         c.seed += i;
                         if (i == 2) c.trace = traced;
                       });
  }

  auto run_with_jobs = [&](int jobs) {
    {
      std::lock_guard<std::mutex> lock(mu);
      captured.clear();
      sink_calls = 0;
    }
    exp::SweepRunner::Options options;
    options.jobs = jobs;
    exp::SweepSpec spec(base);
    spec.runs(1).axis("seed", seeds);
    exp::SweepRunner(options).run(spec);
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(sink_calls, obs::kTracingCompiledIn ? 1 : 0)
        << "exactly one point is traced, none with tracing compiled out";
    return captured;
  };

  const auto serial = run_with_jobs(1);
  const auto parallel = run_with_jobs(8);
  if (!obs::kTracingCompiledIn) {
    harness::ScenarioConfig point = base;
    point.seed += 2;
    point.trace = traced;
    expect_runs_untraced(point);
    return;
  }
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                        serial.size() * sizeof(TraceRecord)),
            0)
      << "trace differs between jobs=1 and jobs=8";
}

// ------------------------------------------------------------ exporters

TEST(TracedRun, ExportersProduceOutput) {
  harness::ScenarioConfig config = small_config();
  config.measure_duration = Time::seconds(5);
  config.trace = basic_spec();
  const std::string dir = ::testing::TempDir();
  config.trace.perfetto_path = dir + "/obs_trace_{seed}.perfetto.json";
  config.trace.jsonl_path = dir + "/obs_trace_{seed}.jsonl";
  // One crash and restart: fault records export under their own category.
  config.faults.churn.scheduled = {{3, Time::seconds(1), Time::seconds(1)}};
  if (!obs::kTracingCompiledIn) {
    expect_runs_untraced(config, {dir + "/obs_trace_7.perfetto.json",
                                  dir + "/obs_trace_7.jsonl"});
    return;
  }
  // An export left by an earlier run must not pass for this one's.
  std::remove((dir + "/obs_trace_7.perfetto.json").c_str());
  std::remove((dir + "/obs_trace_7.jsonl").c_str());
  harness::run_scenario(config);

  std::ifstream perfetto(dir + "/obs_trace_7.perfetto.json");
  ASSERT_TRUE(perfetto.good()) << "perfetto export ({seed} substituted) missing";
  std::stringstream buf;
  buf << perfetto.rdbuf();
  const std::string json = buf.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "no radio slices";
  EXPECT_NE(json.find("\"name\":\"fault_down\",\"cat\":\"fault\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault_up\",\"cat\":\"fault\""),
            std::string::npos);

  std::ifstream jsonl(dir + "/obs_trace_7.jsonl");
  ASSERT_TRUE(jsonl.good());
  std::string line;
  ASSERT_TRUE(std::getline(jsonl, line));
  EXPECT_EQ(line.rfind("{\"t_ns\":", 0), 0u);
}

}  // namespace
}  // namespace essat
