// Deterministic parallel sweep execution.
//
// Every (point, repetition) pair is an independent trial: its config is
// fully determined up front (point config + seed = base seed + repetition
// index) and it runs on whichever worker takes its index. Each point folds
// its runs in repetition order, a run that finishes ahead of an earlier one
// waiting until that one has folded, and the sinks receive the points in
// point order — so the output is bit-identical for any thread count,
// including a single worker.
#pragma once

#include <functional>
#include <vector>

#include "src/exp/aggregate.h"
#include "src/exp/sinks.h"
#include "src/exp/sweep.h"

namespace essat::exp {

// Number of worker threads to use by default: the ESSAT_JOBS environment
// variable if set to a positive integer, otherwise the hardware
// concurrency (at least 1).
int default_jobs();

class SweepRunner {
 public:
  struct Options {
    // Worker threads; 0 means default_jobs() (ESSAT_JOBS or all cores).
    int jobs = 0;
    // The function executed per trial. Defaults to harness::run_scenario;
    // injectable so tests can exercise the engine with a cheap stub.
    std::function<harness::RunMetrics(const harness::ScenarioConfig&)> run_fn;
    // Called after each trial completes with (trials done, trials total).
    // Invoked under a lock, from the worker threads.
    std::function<void(std::size_t done, std::size_t total)> progress;
  };

  SweepRunner() = default;
  explicit SweepRunner(Options options) : options_(std::move(options)) {}

  // Runs the full grid (points * runs_per_point trials) on min(jobs, trials)
  // worker threads, which take trials in (point, repetition) order while the
  // caller waits, and returns the aggregated points in point order. Every
  // sink gets begin() before the first trial, on_point() for each point in
  // point order as soon as that point and every earlier one have all their
  // repetitions, and finish() at the end. A trial exception is rethrown after
  // every other trial has run. Before that, every other complete point is
  // flushed to the sinks in point order and finish() is called, so a
  // partially-failed sweep still leaves its finished results in the sinks'
  // streams.
  std::vector<PointResult> run(const SweepSpec& spec,
                               const std::vector<ResultSink*>& sinks = {});

 private:
  Options options_;
};

}  // namespace essat::exp
