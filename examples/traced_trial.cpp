// Traced trial: one Figure-2 point (STS-SS at deadline D = 0.2 s) on a
// dense 160-node deployment, run with the packet-lifecycle and radio/sleep
// records traced, then exported to Perfetto JSON (chrome://tracing /
// ui.perfetto.dev) and JSONL, with the conservation oracle checked
// in-process. CI runs this as the trace smoke test and validates the
// exports with tools/trace_summary.py.
//
// Usage: traced_trial [perfetto.json] [trace.jsonl]   (defaults below)
#include <cstdio>

#include "src/essat.h"

int main(int argc, char** argv) {
  using namespace essat;

  harness::ScenarioConfig config;
  config.protocol = harness::Protocol::kStsSs;
  config.sts_deadline = util::Time::from_milliseconds(200.0);
  config.deployment.num_nodes = 160;
  config.deployment.area_m = 500.0;
  config.deployment.range_m = 125.0;
  config.deployment.max_tree_dist_m = 300.0;
  config.workload.base_rate_hz = 1.0;
  config.measure_duration = util::Time::seconds(20);
  config.seed = 42;

  config.trace.enabled = true;
  // The packet-lifecycle subset plus radio/sleep state: the event-queue ops
  // (~hundreds per report) would need a ring several times larger for no
  // extra information at this zoom level.
  config.trace.type_mask = obs::kPacketLifecycleTypes |
                           obs::trace_bit(obs::TraceType::kRadioState) |
                           obs::trace_bit(obs::TraceType::kSleepStart) |
                           obs::trace_bit(obs::TraceType::kSleepSkip);
  // ~45k transmissions in the window, each fanning out to ~30 in-range
  // receivers (one deliver/drop record apiece) -> ~3M lifecycle records.
  config.trace.buffer_cap = 1 << 22;  // 4M records x 32 B = 128 MiB ceiling
  config.trace.perfetto_path = argc > 1 ? argv[1] : "traced_trial.perfetto.json";
  config.trace.jsonl_path = argc > 2 ? argv[2] : "traced_trial.jsonl";

  // In-process oracle: reconstruct conservation from the finished trace
  // before teardown. A violation is a simulator bug, not a tracing bug.
  bool conserved = false;
  obs::ConservationReport report;
  config.trace.sink = [&](const obs::Tracer& tracer) {
    report = obs::check_conservation(tracer.snapshot());
    conserved = report.ok && tracer.overwritten() == 0;
    if (tracer.overwritten() > 0) {
      std::fprintf(stderr,
                   "traced_trial: ring overflowed (%llu overwritten) — "
                   "conservation not checkable\n",
                   static_cast<unsigned long long>(tracer.overwritten()));
    }
  };

  std::printf("traced_trial: %s, %d nodes, %.0fs window, seed %llu\n",
              config.protocol.c_str(), config.deployment.num_nodes,
              config.measure_duration.to_seconds(),
              static_cast<unsigned long long>(config.seed));

  const harness::RunMetrics m = harness::run_scenario(config);

  std::printf("  delivery ratio      : %.1f %%\n", m.delivery_ratio * 100.0);
  std::printf("  avg duty cycle      : %.1f %%\n", m.avg_duty_cycle * 100.0);
  std::printf("  conservation        : %s (%llu tx checked, %llu in flight, "
              "%llu mismatched)\n",
              conserved ? "OK" : "VIOLATED",
              static_cast<unsigned long long>(report.transmissions),
              static_cast<unsigned long long>(report.skipped_in_flight),
              static_cast<unsigned long long>(report.mismatched));
  if (!report.ok) std::printf("  detail              : %s\n", report.detail.c_str());
  std::printf("  exports             : %s, %s\n",
              config.trace.perfetto_path.c_str(),
              config.trace.jsonl_path.c_str());
  return conserved ? 0 : 1;
}
