// Whole-trial snapshot capture and restore.
//
// A trial snapshot is a kTrial Snapshot whose payload is one "TRIL"
// section: the scenario config ("SCFG"), the barrier time the event loop
// was paused at, and the serialized state of every live component
// ("TRST"). Capture and restore drive a harness::Trial: advance_to the
// barrier, save_state, finish. Pausing injects no event, so a captured run
// is the straight run's event stream. Restore is deterministic replay plus
// byte attestation: the trial is rebuilt from the config and advanced to
// the barrier, every component is re-serialized and byte-compared against
// the snapshot, and only then does the run continue. A restored run therefore
// produces RunMetrics bit-identical to the straight run's, and any drift —
// version skew, nondeterminism, corruption — is caught at the barrier
// instead of surfacing as silently wrong results.
#pragma once

#include <cstdint>
#include <vector>

#include "src/harness/metrics.h"
#include "src/harness/scenario.h"
#include "src/snap/snapshot.h"
#include "src/util/time.h"

namespace essat::snap {

// The canonical capture point: 1 ns before the setup slot ends, i.e. after
// the shared scenario prefix (placement, tree construction, per-node stack
// allocation, setup traffic) and before the workload is materialized —
// which is what lets forked sweep variants diverge from one capture.
util::Time capture_barrier(const harness::ScenarioConfig& config);

struct TrialCapture {
  Snapshot snapshot;            // kTrial, resumable via resume_trial
  harness::RunMetrics metrics;  // the capturing run, continued to the end
};

// Runs the scenario, snapshotting at `barrier` (default: capture_barrier)
// and continuing to completion; `metrics` is bit-identical to a plain
// run_scenario call's. A barrier past the measurement window throws
// std::invalid_argument (Trial::advance_to).
TrialCapture capture_trial(const harness::ScenarioConfig& config);
TrialCapture capture_trial(const harness::ScenarioConfig& config,
                           util::Time barrier);

// A decoded trial snapshot. Export side effects are stripped from the
// config (trace perfetto/jsonl paths; the sink never survives encoding) so
// a resume is pure computation; the event-affecting trace fields (enabled,
// filters, sample_period) are kept, so a traced capture replays its exact
// stream. tools/replay re-points the export paths before resuming.
struct TrialImage {
  harness::ScenarioConfig config;
  util::Time barrier;
  std::vector<std::uint8_t> state;  // the "TRST" section, verbatim
};

// Throws SnapError on malformed payloads or a non-kTrial snapshot.
TrialImage decode_trial(const Snapshot& snapshot);

// Replays `image.config` to the barrier, attests the rebuilt component
// state byte-for-byte against `image.state` (throws SnapError at the first
// divergence), then runs to completion and returns the metrics. A barrier
// past the measurement window throws std::invalid_argument.
harness::RunMetrics resume_trial(const TrialImage& image);
harness::RunMetrics resume_trial(const Snapshot& snapshot);

}  // namespace essat::snap
