// Pause hook for harness::run_scenario(config, hook): the trial advances to
// `at`, `hook` sees the paused harness::Trial, then the trial finishes.
// perfbench times its set-up phase with it; everything else drives a Trial.
#pragma once

#include <functional>

#include "src/harness/scenario.h"
#include "src/util/time.h"

namespace essat::snap {

using TrialCheckpoint = harness::Trial;

struct TrialHookSpec {
  bool enabled = false;
  util::Time at;
  std::function<void(TrialCheckpoint&)> hook;
};

}  // namespace essat::snap
