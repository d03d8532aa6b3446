#include "src/exp/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

namespace essat::exp {

int default_jobs() {
  if (const char* env = std::getenv("ESSAT_JOBS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

// One point's runs: repetitions [0, folded) are in `agg`, and a repetition
// that finished ahead of an earlier one waits in `early` until it can fold.
struct PointFold {
  Aggregator agg;
  int folded = 0;
  std::map<int, harness::RunMetrics> early;

  // Folds repetition `rep` and every waiting one it unblocks, keeping the
  // Welford order.
  void add(int rep, harness::RunMetrics m) {
    early.emplace(rep, std::move(m));
    while (!early.empty() && early.begin()->first == folded) {
      agg.add(std::move(early.begin()->second));
      early.erase(early.begin());
      ++folded;
    }
  }
};

}  // namespace

std::vector<PointResult> SweepRunner::run(const SweepSpec& spec,
                                          const std::vector<ResultSink*>& sinks) {
  const std::vector<SweepPoint> points = spec.points();
  const int runs = spec.runs_per_point();
  const std::size_t total_trials = points.size() * static_cast<std::size_t>(runs);

  auto run_fn = options_.run_fn
                    ? options_.run_fn
                    : [](const harness::ScenarioConfig& c) {
                        return harness::run_scenario(c);
                      };

  for (ResultSink* sink : sinks) sink->begin(spec.axis_names());

  std::vector<PointFold> folds(points.size());
  std::vector<PointResult> out(points.size());
  std::size_t emitted = 0;  // points fed to the sinks
  auto emit = [&](std::size_t p) {
    out[p] = PointResult{points[p], folds[p].agg.take()};
    for (ResultSink* sink : sinks) sink->on_point(out[p]);
  };

  std::size_t done = 0;
  std::mutex mu;  // orders folds, sink rows and progress
  std::exception_ptr first_error;
  auto run_trial = [&](std::size_t p, int rep) {
    std::unique_lock<std::mutex> lock{mu, std::defer_lock};
    try {
      harness::ScenarioConfig config = points[p].config;
      config.seed = config.seed + static_cast<std::uint64_t>(rep);
      harness::RunMetrics m = run_fn(config);
      lock.lock();
      folds[p].add(rep, std::move(m));
      // Emits every complete point from the lowest unemitted one onward.
      while (emitted < points.size() && folds[emitted].folded == runs) {
        emit(emitted++);
      }
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      if (!first_error) first_error = std::current_exception();
    }
    ++done;
    if (options_.progress) options_.progress(done, total_trials);
  };

  // Each worker takes the next trial index, (point, repetition) row-major,
  // until none is left.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t t = next++; t < total_trials; t = next++) {
      run_trial(t / static_cast<std::size_t>(runs), static_cast<int>(t % runs));
    }
  };
  const int jobs = options_.jobs > 0 ? options_.jobs : default_jobs();
  const std::size_t threads =
      std::min(static_cast<std::size_t>(jobs), total_trials);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  try {
    while (workers.size() < threads) workers.emplace_back(worker);
  } catch (...) {
    next = total_trials;  // a thread failed to start: stop the started ones
    for (std::thread& w : workers) w.join();
    throw;
  }
  for (std::thread& w : workers) w.join();

  // A failure does not discard finished work: every other complete point
  // still reaches the sinks, in point order.
  for (std::size_t p = emitted; p < points.size(); ++p) {
    if (folds[p].folded == runs) emit(p);
  }
  for (ResultSink* sink : sinks) sink->finish();
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

}  // namespace essat::exp
