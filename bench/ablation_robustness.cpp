// Robustness ablation (§4.3): each ESSAT shaper under mid-run node
// failures with maintenance (failure detection + tree repair) enabled, and
// DTS's synchronization overhead with and without failures. The paper
// argues DTS-SS needs no special topology-change mechanism beyond one
// phase update on the first report to a new parent.
//
// All protocol x failure-count points run concurrently through the sweep
// engine.
#include "bench_common.h"

int main() {
  using namespace essat;
  bench::print_header("Ablation §4.3",
                      "ESSAT shapers under node failures (maintenance on)");

  harness::ScenarioConfig base = bench::paper_defaults();
  base.workload.base_rate_hz = 1.0;
  base.measure_duration = bench::measure_duration_or(util::Time::seconds(120));
  base.enable_maintenance = true;

  std::vector<std::pair<std::string, exp::SweepSpec::Apply>> failure_axis;
  for (int kill : {0, 5}) {
    failure_axis.emplace_back(std::to_string(kill),
                              [kill](harness::ScenarioConfig& c) {
      for (int i = 0; i < kill; ++i) {
        // Spread deaths across ids and time; the root (near the centre) is
        // chosen by position, so ids 10,20,... are unlikely to hit it.
        c.faults.churn.scheduled.push_back(
            {10 + i * 10, util::Time::seconds(30 + i * 10)});
      }
    });
  }

  exp::SweepSpec spec(base);
  spec.runs(bench::kRunsPerPoint)
      .axis_protocol({harness::Protocol::kNtsSs, harness::Protocol::kStsSs,
                      harness::Protocol::kDtsSs})
      .axis("failures", std::move(failure_axis));
  const auto results = bench::parallel_runner("ablation").run(spec);

  harness::Table table{{"protocol", "failures", "duty (%)", "latency (s)",
                        "delivery (%)", "phase-update bits/report"}};
  for (const auto& r : results) {
    table.add_row({r.point.labels[0], r.point.labels[1],
                   harness::fmt_pct(r.metrics.duty_cycle.mean()),
                   harness::fmt(r.metrics.latency_s.mean(), 3),
                   harness::fmt_pct(r.metrics.delivery_ratio.mean()),
                   harness::fmt(r.metrics.phase_update_bits.mean(), 3)});
  }
  table.print(std::cout);
  std::printf("\nExpectation (§4.3): all three shapers keep delivering after\n"
              "repairs; NTS needs no schedule update, STS recomputes ranks, DTS\n"
              "resynchronizes with a single advertised phase per new parent —\n"
              "visible as a small bump in phase-update bits under failures.\n\n");
  return 0;
}
