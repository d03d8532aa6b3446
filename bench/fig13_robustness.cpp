// Figure 13 (beyond the paper): robustness under node churn. The paper's
// evaluation runs on a static network; this bench reruns the protocol
// comparison while a growing fraction of non-root nodes crashes and
// restarts mid-measurement (stochastic churn, exponential downtimes), and
// reports delivery, latency and energy alongside the fault axis's own
// metrics (deaths, node-seconds of downtime, delivery during outages).
//
// Grid: protocol x churn fraction {0, 5%, 10%, 20%}, all points concurrent
// through the sweep engine; the fault schedule is pre-drawn per node so
// results are deterministic for any ESSAT_JOBS value. SYNC is excluded:
// its duty machines do not survive a stack rebuild (see README).
//
// Output: one JSON line per point to argv[1] / ESSAT_BENCH_JSON
// (default fig13_robustness.json). Exit 1 if that file cannot be opened;
// exit 2 if an ESSAT-family protocol records zero delivery under 10%
// churn — the CI smoke gate.
#include <fstream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace essat;
  bench::print_header("Figure 13",
                      "delivery / latency / energy vs churn rate");

  harness::ScenarioConfig base = bench::paper_defaults();
  base.measure_duration = bench::measure_duration_or(util::Time::seconds(60));

  std::vector<fault::FaultSpec> faults(4);
  faults[1].churn.node_fraction = 0.05;
  faults[2].churn.node_fraction = 0.10;
  faults[3].churn.node_fraction = 0.20;
  for (fault::FaultSpec& f : faults) f.churn.mean_downtime_s = 10.0;

  exp::SweepSpec spec(base);
  spec.runs(bench::kRunsPerPoint)
      .axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kNtsSs,
                      harness::Protocol::kPsm})
      .axis_faults(faults);

  const char* out_path = argc > 1 ? argv[1] : nullptr;
  if (out_path == nullptr) out_path = std::getenv("ESSAT_BENCH_JSON");
  if (out_path == nullptr) out_path = "fig13_robustness.json";
  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "fig13_robustness: cannot open %s\n", out_path);
    return 1;
  }
  exp::JsonLinesSink json(out);
  const auto results = bench::parallel_runner("fig13").run(spec, {&json});

  harness::Table table{{"protocol", "faults", "duty (%)", "latency (s)",
                        "delivery (%)", "deliv@fault (%)", "deaths",
                        "downtime (s)"}};
  for (const auto& r : results) {
    table.add_row({r.point.labels[0], r.point.labels[1],
                   harness::fmt_pct(r.metrics.duty_cycle.mean()),
                   harness::fmt(r.metrics.latency_s.mean(), 3),
                   harness::fmt_pct(r.metrics.delivery_ratio.mean()),
                   harness::fmt_pct(r.metrics.delivery_during_fault.mean()),
                   harness::fmt(r.metrics.node_deaths.mean(), 1),
                   harness::fmt(r.metrics.downtime_s.mean(), 1)});
  }
  table.print(std::cout);
  std::printf("-> %s\n", out_path);
  std::printf("\nExpectation: ESSAT's shapers keep delivering while churned\n"
              "nodes are down — the tree repairs around outages (bounded-\n"
              "backoff rejoins) and restarted nodes re-register their\n"
              "queries — at a modest duty premium over the static network;\n"
              "PSM pays its beacon-buffering latency on every repair.\n\n");

  // CI smoke gate: the ESSAT family must keep a nonzero delivery ratio
  // under 10% churn.
  bool ok = true;
  for (const auto& r : results) {
    const std::string& proto = r.point.labels[0];
    if (r.point.labels[1] != "churn0.1") continue;
    if (proto != "DTS-SS" && proto != "NTS-SS") continue;
    if (!(r.metrics.delivery_ratio.mean() > 0.0)) {
      std::fprintf(stderr,
                   "fig13_robustness: %s delivered nothing under 10%% churn\n",
                   proto.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 2;
}
