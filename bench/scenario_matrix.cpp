// Scenario matrix: protocol x deployment x rate in one declarative grid —
// the sweep the pluggable-stack refactor exists for. Every cell flows
// through the policy table and DeploymentSpec; there is no per-protocol
// or per-topology branching anywhere in the driver or the harness.
//
// The paper fixed its deployment to 80 uniform-random nodes; this bench
// asks how the protocol ordering holds up when the same workload runs on a
// regular grid, a clustered field, and a sparse corridor.
#include "bench_common.h"

int main() {
  using namespace essat;
  bench::print_header("Scenario matrix",
                      "duty / latency across protocol x topology x rate");

  harness::ScenarioConfig base = bench::paper_defaults();
  base.measure_duration = bench::measure_duration_or(util::Time::seconds(60));

  // Corridor/line deployments keep the node count but stretch the area;
  // the tree cap must cover the whole span.
  std::vector<net::DeploymentSpec> deployments;
  for (net::TopologyKind kind :
       {net::TopologyKind::kUniform, net::TopologyKind::kGrid,
        net::TopologyKind::kClustered, net::TopologyKind::kCorridor}) {
    net::DeploymentSpec d = base.deployment;
    d.kind = kind;
    if (kind == net::TopologyKind::kCorridor) {
      d.area_m = 1200.0;
      d.corridor_width_m = 80.0;
      d.max_tree_dist_m = 1200.0;
    }
    deployments.push_back(d);
  }

  exp::SweepSpec spec(base);
  spec.runs(bench::kRunsPerPoint)
      .axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kNtsSs,
                      harness::Protocol::kPsm})
      .axis_topology(deployments)
      .axis_rate({1.0, 5.0});
  const auto results = bench::parallel_runner("matrix").run(spec);

  harness::Table table{{"protocol", "topology", "rate (Hz)", "duty (%)",
                        "latency (s)", "delivery (%)", "tree", "max rank"}};
  for (const auto& r : results) {
    table.add_row({r.point.labels[0], r.point.labels[1], r.point.labels[2],
                   harness::fmt_pct(r.metrics.duty_cycle.mean()),
                   harness::fmt(r.metrics.latency_s.mean(), 3),
                   harness::fmt_pct(r.metrics.delivery_ratio.mean()),
                   std::to_string(r.metrics.last_run.tree_members),
                   std::to_string(r.metrics.last_run.max_rank)});
  }
  table.print(std::cout);
  std::printf("\nExpectation: ESSAT's advantage persists across shapes; the\n"
              "corridor's deep tree stresses rank-dependent duty (NTS-SS) and\n"
              "multi-hop buffering (PSM) hardest.\n\n");
  return 0;
}
