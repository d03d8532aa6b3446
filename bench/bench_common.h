// Shared configuration for the figure-reproduction benches: the paper's
// experimental setup (§5) with the number of repetitions used per point,
// and the parallel sweep plumbing shared by the multi-run benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/essat.h"

namespace essat::bench {

// "Each data point is the average over five runs" (§5). Override with
// ESSAT_BENCH_RUNS for quick looks.
inline int runs_per_point() {
  if (const char* env = std::getenv("ESSAT_BENCH_RUNS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 5;
}
inline const int kRunsPerPoint = runs_per_point();

// Worker threads for the sweep engine. Override with ESSAT_JOBS (defaults
// to all cores); results are bit-identical regardless of the value.
inline const int kJobs = exp::default_jobs();

// Measurement-window override (seconds) for quick looks and the CI smoke
// targets; unset/invalid keeps the bench's own default.
inline util::Time measure_duration_or(util::Time fallback) {
  if (const char* env = std::getenv("ESSAT_BENCH_MEASURE_S")) {
    const double s = std::atof(env);
    if (s > 0) return util::Time::from_seconds(s);
  }
  return fallback;
}

inline harness::ScenarioConfig paper_defaults() {
  harness::ScenarioConfig c;
  c.deployment.num_nodes = 80;
  c.deployment.area_m = 500.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 300.0;
  // "Experiments last 200s"; ESSAT_BENCH_MEASURE_S shortens the window for
  // quick looks and the CI smoke targets (drivers that override the
  // default below do so through measure_duration_or as well).
  c.measure_duration = measure_duration_or(util::Time::seconds(200));
  c.seed = 1;
  return c;
}

// A SweepRunner wired to kJobs with a live stderr trial ticker.
inline exp::SweepRunner parallel_runner(const char* tag) {
  exp::SweepRunner::Options opts;
  opts.jobs = kJobs;
  auto reporter = std::make_shared<exp::ProgressReporter>(std::cerr, tag);
  opts.progress = [reporter](std::size_t done, std::size_t total) {
    reporter->on_trial_done(done, total);
  };
  return exp::SweepRunner(std::move(opts));
}

// Pivots a two-axis sweep (rows = axis 0, columns = axis 1) into the
// figure tables the seed printed: one cell per point, formatted by `cell`.
inline void print_pivot(
    std::ostream& os, const std::vector<exp::PointResult>& results,
    const std::string& row_header,
    const std::function<std::string(const harness::AveragedMetrics&)>& cell) {
  if (results.empty() || results[0].point.labels.size() < 2) return;
  // Column count = length of the first run of rows sharing axis-0's label.
  std::size_t num_cols = results.size();
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].point.labels[0] != results[0].point.labels[0]) {
      num_cols = i;
      break;
    }
  }
  std::vector<std::string> headers{row_header};
  for (std::size_t c = 0; c < num_cols; ++c) {
    headers.push_back(results[c].point.labels[1]);
  }
  harness::Table table(std::move(headers));
  for (std::size_t r = 0; (r + 1) * num_cols <= results.size(); ++r) {
    std::vector<std::string> row{results[r * num_cols].point.labels[0]};
    for (std::size_t c = 0; c < num_cols; ++c) {
      row.push_back(cell(results[r * num_cols + c].metrics));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

// `runs` is the figure's SweepSpec::runs_per_point().
inline void print_header(const char* figure, const char* description,
                         int runs = kRunsPerPoint) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("Setup: 80 nodes, 500x500 m^2, range 125 m, 1 Mbps, 52 B reports,\n");
  std::printf("       query classes Q1:Q2:Q3 = 6:3:2, %d runs per point, %d jobs.\n",
              runs, kJobs);
  std::printf("==============================================================\n");
}

}  // namespace essat::bench
