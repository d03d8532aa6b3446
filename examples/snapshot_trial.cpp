// Snapshot round-trip: capture a traced trial mid-run, halfway through the
// measurement window, write the snapshot to disk, read it back, resume it,
// and demand the resumed RunMetrics encode bit-identically to the capturing
// run's.
// Exits nonzero on any mismatch. CI runs this as the snapshot smoke test;
// the written file then feeds tools/replay (--dump, --verify).
//
// Usage: snapshot_trial [out.snap]   (default below)
#include <cstdio>

#include "src/essat.h"
#include "src/snap/metrics_codec.h"
#include "src/snap/snapshot_io.h"
#include "src/snap/trial.h"

int main(int argc, char** argv) {
  using namespace essat;
  const char* out_path = argc > 1 ? argv[1] : "snapshot_trial.snap";

  harness::ScenarioConfig config;
  config.protocol = harness::Protocol::kDtsSs;
  config.deployment.num_nodes = 40;
  config.deployment.area_m = 350.0;
  config.workload.base_rate_hz = 1.0;
  config.setup_duration = util::Time::seconds(3);
  config.measure_duration = util::Time::seconds(8);
  config.seed = 11;
  // Tracing on during capture AND resume: the trace layer must not perturb
  // the event stream, and a traced capture must replay its exact stream.
  config.trace.enabled = true;
  config.trace.type_mask =
      obs::kPacketLifecycleTypes | obs::trace_bit(obs::TraceType::kRadioState);
  config.trace.buffer_cap = 1 << 20;

  std::printf("snapshot_trial: %s, %d nodes, seed %llu -> %s\n",
              config.protocol.c_str(), config.deployment.num_nodes,
              static_cast<unsigned long long>(config.seed), out_path);

  const util::Time mid_measurement =
      harness::Trial{config}.measure_end() - config.measure_duration / 2;
  const snap::TrialCapture cap = snap::capture_trial(config, mid_measurement);
  snap::write_snapshot_file(out_path, cap.snapshot);

  const snap::Snapshot reread = snap::read_snapshot_file(out_path);
  const harness::RunMetrics resumed = snap::resume_trial(reread);

  const bool identical = snap::run_metrics_to_bytes(cap.metrics) ==
                         snap::run_metrics_to_bytes(resumed);
  std::printf("  snapshot            : %zu payload bytes\n",
              cap.snapshot.payload.size());
  std::printf("  delivery ratio      : %.1f %%\n", resumed.delivery_ratio * 100.0);
  std::printf("  resumed == captured : %s\n", identical ? "OK (bit-exact)" : "MISMATCH");
  return identical ? 0 : 1;
}
