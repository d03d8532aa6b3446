// Figure 2: impact of the query deadline D on STS-SS's duty cycle and query
// latency. Three queries (one per class). The paper observes a knee where
// the local deadline l = D/M crosses T_agg: below it latency is flat and
// duty falls as D grows; above it latency grows ~ linearly with D while the
// duty cycle stops improving.
//
// All eight deadline points run concurrently through the sweep engine.
#include "bench_common.h"

int main() {
  using namespace essat;
  bench::print_header("Figure 2", "STS-SS duty cycle & query latency vs deadline D");

  harness::ScenarioConfig base = bench::paper_defaults();
  base.protocol = harness::Protocol::kStsSs;
  // The paper leaves Fig. 2's rate unstated. 1 Hz keeps every deadline of
  // the sweep (up to 0.8 s) below the 1 s base period.
  base.workload.base_rate_hz = 1.0;

  exp::SweepSpec spec(base);
  std::vector<std::pair<std::string, exp::SweepSpec::Apply>> deadlines;
  for (double d_s : {0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.6, 0.8}) {
    deadlines.emplace_back(harness::fmt(d_s, 2), [d_s](harness::ScenarioConfig& c) {
      c.sts_deadline = util::Time::from_seconds(d_s);
    });
  }
  spec.runs(bench::kRunsPerPoint).axis("D (s)", std::move(deadlines));
  const auto results = bench::parallel_runner("fig2").run(spec);

  harness::Table table{{"D (s)", "duty cycle (%)", "ci90", "latency (s)", "ci90"}};
  for (const auto& r : results) {
    table.add_row({r.point.labels[0],
                   harness::fmt_pct(r.metrics.duty_cycle.mean()),
                   harness::fmt_pct(r.metrics.duty_ci90()),
                   harness::fmt(r.metrics.latency_s.mean(), 3),
                   harness::fmt(r.metrics.latency_ci90(), 3)});
  }
  table.print(std::cout);
  std::printf("\nPaper: knee at D ~ 0.12 s (l ~ T_agg); duty falls toward the knee,\n"
              "latency grows roughly proportionally with D beyond it.\n\n");
  return 0;
}
