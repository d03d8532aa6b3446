// Figure 8: histogram of sleep-interval lengths with T_BE = 0, 25 ms bins
// up to 200 ms ("each point is the number of sleep intervals whose length
// falls in [x-25, x] ms"). Two observations the paper draws: the workload
// nodes see is aperiodic, and a non-trivial fraction of intervals is
// shorter than realistic break-even times — sleeping through those would
// cost energy and latency, which is what Safe Sleep's t_BE check prevents.
//
// The three protocol runs go concurrently through the sweep engine.
#include "bench_common.h"

int main() {
  using namespace essat;
  harness::ScenarioConfig base = bench::paper_defaults();
  base.workload.base_rate_hz = 5.0;
  base.t_be = util::Time::zero();
  base.seed = 7;
  exp::SweepSpec spec(base);
  spec.runs(1).axis_protocol({harness::Protocol::kDtsSs,
                              harness::Protocol::kStsSs,
                              harness::Protocol::kNtsSs});
  bench::print_header("Figure 8",
                      "histogram of sleep intervals, T_BE = 0, 5 Hz, single run",
                      spec.runs_per_point());
  const auto results = bench::parallel_runner("fig8").run(spec);

  std::vector<energy::SleepHistogram> hists;
  std::vector<double> frac_below;
  for (const exp::PointResult& r : results) {
    hists.push_back(r.metrics.last_run.sleep_hist);
    frac_below.push_back(r.metrics.last_run.frac_sleep_below_2_5ms);
  }
  harness::Table table{{"bin (ms]", "DTS-SS", "STS-SS", "NTS-SS"}};
  for (std::size_t bin = 0; bin < hists[0].num_bins(); ++bin) {
    std::vector<std::string> row{
        harness::fmt(hists[0].bin_upper_edge(bin) * 1e3, 0)};
    for (const auto& h : hists) row.push_back(std::to_string(h.count(bin)));
    table.add_row(std::move(row));
  }
  std::vector<std::string> overflow_row{"> 200"};
  for (const auto& h : hists) overflow_row.push_back(std::to_string(h.overflow()));
  table.add_row(std::move(overflow_row));
  table.print(std::cout);

  std::printf("\nSleep intervals shorter than a 2.5 ms break-even time (paper:\n"
              "NTS-SS 0.40%%, STS-SS 0.85%%, DTS-SS 6.33%%):\n");
  std::printf("  DTS-SS %.2f%%   STS-SS %.2f%%   NTS-SS %.2f%%\n\n",
              frac_below[0] * 100.0, frac_below[1] * 100.0, frac_below[2] * 100.0);
  return 0;
}
