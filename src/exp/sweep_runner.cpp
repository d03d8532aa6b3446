#include "src/exp/sweep_runner.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "src/exp/checkpoint.h"
#include "src/exp/thread_pool.h"

namespace essat::exp {

namespace {

// One point's runs: repetitions [0, folded) are in `agg`, and a repetition
// that finished ahead of an earlier one waits in `early` until it can fold.
struct PointFold {
  Aggregator agg;
  int folded = 0;
  std::map<int, harness::RunMetrics> early;

  bool has(int rep) const { return rep < folded || early.count(rep) != 0; }

  // Folds repetition `rep` and every waiting one it unblocks, keeping the
  // Welford order; a repetition already held is ignored.
  void add(int rep, harness::RunMetrics m) {
    if (has(rep)) return;
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

  std::vector<PointFold> folds(points.size());
  std::size_t emitted = 0;  // points fed to the sinks
  std::optional<SweepLedger> ledger;
  if (!options_.checkpoint_dir.empty()) {
    const std::filesystem::path dir{options_.checkpoint_dir};
    std::filesystem::create_directories(dir);
    ledger.emplace((dir / "sweep.ledger").string(),
                   sweep_fingerprint(points, runs));
    // Recorded trials fold like fresh ones and are not re-run, so a resumed
    // sweep is bit-identical to an uninterrupted one.
    for (const CompletedTrial& t : ledger->completed()) {
      if (t.point < points.size() && t.rep >= 0 && t.rep < runs) {
        folds[t.point].add(t.rep, t.metrics);
      }
    }
    emitted = static_cast<std::size_t>(
        std::min<std::uint64_t>(ledger->points_emitted(), points.size()));
    // Re-attach the sinks at the last watermark: path-backed sinks truncate
    // any torn row and append from there; stream sinks (not resumable) just
    // receive the not-yet-emitted points.
    const std::vector<std::int64_t>& offs = ledger->sink_offsets();
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      sinks[i]->resume_at(i < offs.size() ? offs[i] : 0);
    }
  }
  const std::size_t emitted_before = emitted;  // by an interrupted run
  for (ResultSink* sink : sinks) sink->begin(spec.axis_names());

  std::vector<PointResult> out(points.size());
  auto emit = [&](std::size_t p) {
    out[p] = PointResult{points[p], folds[p].agg.take()};
    for (ResultSink* sink : sinks) sink->on_point(out[p]);
  };
  // Emits every complete point from the lowest unemitted one onward, each
  // followed by a watermark of the sinks' offsets when there is a ledger.
  auto emit_ready = [&] {
    while (emitted < points.size() && folds[emitted].folded == runs) {
      emit(emitted++);
      if (!ledger) continue;
      std::vector<std::int64_t> offs;
      offs.reserve(sinks.size());
      for (ResultSink* sink : sinks) offs.push_back(sink->output_offset());
      ledger->record_mark(emitted, offs);
    }
  };
  // A crash can land after a point's last TRIA record but before its MARK;
  // recover that emission before running anything.
  emit_ready();

  std::vector<std::pair<std::size_t, int>> pending;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (int rep = 0; rep < runs; ++rep) {
      if (!folds[p].has(rep)) pending.emplace_back(p, rep);
    }
  }

  std::size_t done = total_trials - pending.size();
  std::mutex mu;  // orders folds, sink rows, ledger appends and progress
  std::exception_ptr first_error;
  auto run_trial = [&](std::size_t p, int rep) {
    std::unique_lock<std::mutex> lock{mu, std::defer_lock};
    try {
      harness::ScenarioConfig config = points[p].config;
      config.seed = config.seed + static_cast<std::uint64_t>(rep);
      harness::RunMetrics m = run_fn(config);
      lock.lock();
      if (ledger) ledger->record_trial(p, rep, m);
      folds[p].add(rep, std::move(m));
      emit_ready();
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      if (!first_error) first_error = std::current_exception();
    }
    ++done;
    if (options_.progress) options_.progress(done, total_trials);
  };

  int jobs = options_.jobs > 0 ? options_.jobs : default_jobs();
  if (static_cast<std::size_t>(jobs) > pending.size()) {
    jobs = static_cast<int>(pending.size());  // don't spawn idle workers
  }
  if (jobs <= 1) {
    for (const auto& [p, rep] : pending) run_trial(p, rep);
  } else {
    ThreadPool pool(jobs);
    for (const auto& [p, rep] : pending) {
      pool.submit([&run_trial, p = p, rep = rep] { run_trial(p, rep); });
    }
    pool.wait_idle();
  }

  // With a ledger, the points a failure left unemitted wait for a resume.
  if (first_error && ledger) std::rethrow_exception(first_error);
  // Without one, a failure does not discard finished work: every other
  // complete point still reaches the sinks, in point order.
  for (std::size_t p = emitted; p < points.size(); ++p) {
    if (folds[p].folded == runs) emit(p);
  }
  for (ResultSink* sink : sinks) sink->finish();
  if (first_error) std::rethrow_exception(first_error);

  // Points emitted before a crash were folded from the ledger; take them
  // for the return value.
  for (std::size_t p = 0; p < emitted_before; ++p) {
    out[p] = PointResult{points[p], folds[p].agg.take()};
  }
  return out;
}

}  // namespace essat::exp
