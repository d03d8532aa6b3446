// The benchmark's named workloads: each is a sweep grid plus the slice of
// it the traced run replays. README.md beside this file says why each
// workload exists and which layers it loads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/essat.h"

namespace essat::perfbench {

struct Workload {
  std::string name;
  // The trial list: a grid whose leading axis is the seed, one run per
  // point, so the list is `seeds` rounds of the rest of the grid, with
  // seeds base, base + 1, ... (the seeds SweepSpec's repetitions assign).
  exp::SweepSpec spec;
  int seeds = 1;
  // The fixed subset of those trials the traced run replays: a smaller
  // grid over the same base config, so each of its trials is also a trial
  // of `spec`. Sized so every trace ring fits in memory at two workers.
  exp::SweepSpec traced;
};

// Builds the named workload ("paper-static", "dynamic" or "city") with
// trial seeds starting at `base_seed`.
// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t base_seed);

// The spec's trials in SweepRunner order (point-major, repetition-minor),
// each with its effective seed.
std::vector<harness::ScenarioConfig> expand_trials(const exp::SweepSpec& spec);

// Command line shared by the benchmark programs:
//   --workload NAME --seed N [--seconds S] [--trace 0|1]
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  int trace = 0;
};

// Throws std::invalid_argument on an unknown flag or a malformed value.
Options parse_options(int argc, char** argv);

}  // namespace essat::perfbench
