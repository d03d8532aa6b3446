// Headline claims (abstract/conclusion): "DTS-SS achieved an average node
// duty cycle 38-87% lower than SPAN, and query latencies 36-98% lower than
// PSM and SYNC." Reproduced across the base-rate sweep.
//
// All rate x protocol points run concurrently through the sweep engine.
#include "bench_common.h"

int main() {
  using namespace essat;
  bench::print_header("Headline", "DTS-SS vs SPAN (duty) and vs PSM/SYNC (latency)");

  const std::vector<double> rates{1.0, 3.0, 5.0};
  exp::SweepSpec spec(bench::paper_defaults());
  spec.runs(bench::kRunsPerPoint)
      .axis_rate(rates)
      .axis_protocol({harness::Protocol::kDtsSs, harness::Protocol::kSpan,
                      harness::Protocol::kPsm, harness::Protocol::kSync});
  const auto results = bench::parallel_runner("headline").run(spec);

  harness::Table table{{"rate (Hz)", "duty vs SPAN (% lower)",
                        "latency vs PSM (% lower)", "latency vs SYNC (% lower)"}};
  double duty_min = 100, duty_max = 0, lat_min = 100, lat_max = 0;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    // Row-major grid: the four protocols of rate r, in axis order.
    const auto& dts = results[4 * r].metrics;
    const auto& span = results[4 * r + 1].metrics;
    const auto& psm = results[4 * r + 2].metrics;
    const auto& sync = results[4 * r + 3].metrics;

    const double duty_red =
        100.0 * (1.0 - dts.duty_cycle.mean() / span.duty_cycle.mean());
    const double lat_red_psm =
        100.0 * (1.0 - dts.latency_s.mean() / psm.latency_s.mean());
    const double lat_red_sync =
        100.0 * (1.0 - dts.latency_s.mean() / sync.latency_s.mean());
    duty_min = std::min(duty_min, duty_red);
    duty_max = std::max(duty_max, duty_red);
    lat_min = std::min({lat_min, lat_red_psm, lat_red_sync});
    lat_max = std::max({lat_max, lat_red_psm, lat_red_sync});
    table.add_row({harness::fmt(rates[r], 1), harness::fmt(duty_red, 1),
                   harness::fmt(lat_red_psm, 1), harness::fmt(lat_red_sync, 1)});
  }
  table.print(std::cout);
  std::printf("\nMeasured: duty cycle %.0f-%.0f%% lower than SPAN (paper: 38-87%%);\n"
              "latency %.0f-%.0f%% lower than PSM/SYNC (paper: 36-98%%).\n\n",
              duty_min, duty_max, lat_min, lat_max);
  return 0;
}
