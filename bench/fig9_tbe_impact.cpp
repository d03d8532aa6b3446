// Figure 9: impact of the radio's break-even time on the duty cycle, base
// rate swept with T_BE in {0, 2.5, 10, 40} ms (2.5/10 ms: MICA2 average and
// worst case; 40 ms: ZebraNet). The paper's caption says STS-SS while its
// body text says DTS-SS (DTS is "the most sensitive to break-even-times"),
// so both protocols are emitted here.
#include "bench_common.h"

int main() {
  using namespace essat;
  bench::print_header("Figure 9", "duty cycle (%) vs base rate for T_BE values");

  for (auto p : {harness::Protocol::kDtsSs, harness::Protocol::kStsSs}) {
    std::printf("--- %s ---\n", harness::protocol_name(p));
    harness::Table table{{"rate (Hz)", "T_BE=0ms", "T_BE=2.5ms", "T_BE=10ms",
                          "T_BE=40ms"}};
    for (double rate : {1.0, 3.0, 5.0}) {
      std::vector<std::string> row{harness::fmt(rate, 1)};
      for (double tbe_ms : {0.0, 2.5, 10.0, 40.0}) {
        harness::ScenarioConfig c = bench::paper_defaults();
        c.protocol = p;
        c.workload.base_rate_hz = rate;
        c.t_be = util::Time::from_milliseconds(tbe_ms);
        const auto avg = harness::run_repeated(c, bench::kRunsPerPoint);
        row.push_back(harness::fmt_pct(avg.duty_cycle.mean()));
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
