// Figure 9: impact of the radio's break-even time on the duty cycle, base
// rate swept with T_BE in {0, 2.5, 10, 40} ms (2.5/10 ms: MICA2 average and
// worst case; 40 ms: ZebraNet). The paper's caption says STS-SS while its
// body text says DTS-SS (DTS is "the most sensitive to break-even-times"),
// so both protocols are emitted here.
//
// All protocol x rate x T_BE points run concurrently through the sweep
// engine.
#include "bench_common.h"

int main() {
  using namespace essat;
  bench::print_header("Figure 9", "duty cycle (%) vs base rate for T_BE values");

  const std::vector<harness::ProtocolKey> protocols{harness::Protocol::kDtsSs,
                                                    harness::Protocol::kStsSs};
  const std::vector<double> rates{1.0, 3.0, 5.0};
  // Each break-even time (ms) with its column label.
  const std::vector<std::pair<std::string, double>> tbes_ms{
      {"T_BE=0ms", 0.0}, {"T_BE=2.5ms", 2.5}, {"T_BE=10ms", 10.0},
      {"T_BE=40ms", 40.0}};
  std::vector<std::pair<std::string, exp::SweepSpec::Apply>> tbe_options;
  for (const auto& [label, ms] : tbes_ms) {
    tbe_options.emplace_back(label, [ms = ms](harness::ScenarioConfig& c) {
      c.t_be = util::Time::from_milliseconds(ms);
    });
  }

  exp::SweepSpec spec(bench::paper_defaults());
  spec.runs(bench::kRunsPerPoint)
      .axis_protocol(protocols)
      .axis_rate(rates)
      .axis("T_BE", std::move(tbe_options));
  const auto results = bench::parallel_runner("fig9").run(spec);

  std::vector<std::string> headers{"rate (Hz)"};
  for (const auto& tbe : tbes_ms) headers.push_back(tbe.first);
  // Row-major grid: one table per protocol, one row per rate, one column
  // per T_BE.
  std::size_t i = 0;
  for (const harness::ProtocolKey& p : protocols) {
    std::printf("--- %s ---\n", p.c_str());
    harness::Table table{headers};
    for (double rate : rates) {
      std::vector<std::string> row{harness::fmt(rate, 1)};
      for (std::size_t t = 0; t < tbes_ms.size(); ++t) {
        row.push_back(harness::fmt_pct(results[i++].metrics.duty_cycle.mean()));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf("Paper: T_BE <= 10 ms (MICA2-class radios) costs at most ~10%% extra\n"
              "duty cycle; T_BE = 40 ms costs up to ~30%% — reducing radio wake-up\n"
              "time matters.\n\n");
  return 0;
}
