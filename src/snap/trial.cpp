#include "src/snap/trial.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "src/snap/config_codec.h"
#include "src/snap/serializer.h"

namespace essat::snap {

util::Time capture_barrier(const harness::ScenarioConfig& config) {
  return config.setup_duration - util::Time::nanoseconds(1);
}

TrialCapture capture_trial(const harness::ScenarioConfig& config) {
  return capture_trial(config, capture_barrier(config));
}

TrialCapture capture_trial(const harness::ScenarioConfig& config,
                           util::Time barrier) {
  harness::Trial trial{config};
  trial.advance_to(barrier);
  Serializer out;
  out.begin("TRIL");
  save_scenario_config(out, config);
  out.time(barrier);
  trial.save_state(out);
  out.end();
  TrialCapture result;
  result.snapshot.kind = SnapshotKind::kTrial;
  result.snapshot.payload = out.take();
  result.metrics = trial.finish();
  return result;
}

TrialImage decode_trial(const Snapshot& snapshot) {
  if (snapshot.kind != SnapshotKind::kTrial) {
    throw SnapError{"decode_trial: snapshot kind is not kTrial"};
  }
  Deserializer in{snapshot.payload};
  in.enter("TRIL");
  TrialImage image;
  image.config = load_scenario_config(in);
  image.barrier = in.time();
  const std::size_t state_at = in.offset();
  const std::size_t state_len = in.remaining();
  image.state.assign(snapshot.payload.data() + state_at,
                     snapshot.payload.data() + state_at + state_len);
  in.skip();  // the "TRST" section just copied out
  in.finish();

  // Strip export side effects; keep the recording trace fields.
  image.config.trace.perfetto_path.clear();
  image.config.trace.jsonl_path.clear();
  image.config.trace.sink = nullptr;
  return image;
}

harness::RunMetrics resume_trial(const TrialImage& image) {
  harness::Trial trial{image.config};
  trial.advance_to(image.barrier);
  Serializer out;
  trial.save_state(out);
  const std::vector<std::uint8_t> replayed = out.take();
  if (replayed != image.state) {
    // The first differing byte locates the component: section tags are
    // plain text in the stream.
    const auto diverged = std::mismatch(replayed.begin(), replayed.end(),
                                        image.state.begin(), image.state.end());
    throw SnapError{
        "resume attestation failed: replayed state diverges from the "
        "snapshot at byte " +
        std::to_string(diverged.first - replayed.begin()) + " of " +
        std::to_string(image.state.size()) + " (replayed " +
        std::to_string(replayed.size()) +
        " bytes); the snapshot was taken by a different build or the "
        "replay is nondeterministic"};
  }
  return trial.finish();
}

harness::RunMetrics resume_trial(const Snapshot& snapshot) {
  return resume_trial(decode_trial(snapshot));
}

}  // namespace essat::snap
