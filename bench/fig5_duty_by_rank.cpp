// Figure 5: distribution of duty cycles across tree ranks, single typical
// run at base rate 5 Hz (one query per class). The paper's observation:
// NTS-SS duty grows linearly with rank (Eq. 1) while STS-SS and DTS-SS are
// rank-independent and therefore scale to deep trees.
//
// The three protocol runs go concurrently through the sweep engine.
#include "bench_common.h"

int main() {
  using namespace essat;
  harness::ScenarioConfig base = bench::paper_defaults();
  base.workload.base_rate_hz = 5.0;
  base.seed = 7;  // "a typical run"
  exp::SweepSpec spec(base);
  spec.runs(1).axis_protocol({harness::Protocol::kDtsSs,
                              harness::Protocol::kStsSs,
                              harness::Protocol::kNtsSs});
  bench::print_header("Figure 5", "duty cycle (%) by node rank, 5 Hz, single run",
                      spec.runs_per_point());
  const auto results = bench::parallel_runner("fig5").run(spec);

  std::size_t max_ranks = 0;
  for (const exp::PointResult& r : results) {
    max_ranks = std::max(max_ranks, r.metrics.last_run.duty_by_rank.size());
  }

  harness::Table table{{"rank (0=leaf)", "DTS-SS", "STS-SS", "NTS-SS"}};
  for (std::size_t rank = 0; rank < max_ranks; ++rank) {
    std::vector<std::string> row{std::to_string(rank)};
    for (const exp::PointResult& r : results) {
      const std::vector<double>& duty = r.metrics.last_run.duty_by_rank;
      row.push_back(rank < duty.size() ? harness::fmt_pct(duty[rank]) : "-");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::printf("\nPaper: NTS-SS rises linearly with rank (nodes near the root idle\n"
              "waiting for deep subtrees); STS-SS/DTS-SS stay flat until the root\n"
              "(the root/base station is always on in every protocol).\n\n");
  return 0;
}
