// Result sinks for sweep output.
//
// A sink receives every aggregated grid point, in point (row-major grid)
// order, as soon as that point and every earlier one have all their
// repetitions. The one shipping sink writes JSON lines (one object per
// point, full precision) to a stream the caller owns; tests substitute
// their own ResultSink. ProgressReporter is the live side channel: it ticks
// per completed trial while the sweep is in flight.
#pragma once

#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/exp/sweep.h"
#include "src/harness/runner.h"

namespace essat::exp {

// One aggregated grid point.
struct PointResult {
  SweepPoint point;
  harness::AveragedMetrics metrics;
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  // Called once before any point, with the sweep's axis names.
  virtual void begin(const std::vector<std::string>& axis_names) { (void)axis_names; }
  // Called once per grid point, in point order.
  virtual void on_point(const PointResult& r) = 0;
  // Called once after the last point.
  virtual void finish() {}
};

// One JSON object per line per point; numbers at %.17g. Flushes after
// every line so an aborted sweep leaves complete, parseable output behind.
class JsonLinesSink : public ResultSink {
 public:
  explicit JsonLinesSink(std::ostream& os) : os_(os) {}
  void begin(const std::vector<std::string>& axis_names) override;
  void on_point(const PointResult& r) override;

 private:
  std::ostream& os_;
  std::vector<std::string> axis_names_;
};

// Live trial-completion ticker ("[tag] trials 12/40"), safe to call from
// worker threads. On a terminal it rewrites one line in place (carriage
// returns, final newline); when the stream is redirected (CI logs, files)
// it prints one milestone line per completed 10% instead, so logs are not
// flooded with \r rewrites.
class ProgressReporter {
 public:
  // Auto-detects terminal-ness: only std::cout/std::cerr/std::clog backed
  // by a TTY rewrite in place.
  explicit ProgressReporter(std::ostream& os, std::string tag = "sweep")
      : os_(os), tag_(std::move(tag)), tty_(stream_is_tty(os)) {}
  // Explicit override, for tests and exotic streams.
  ProgressReporter(std::ostream& os, std::string tag, bool tty)
      : os_(os), tag_(std::move(tag)), tty_(tty) {}
  void on_trial_done(std::size_t done, std::size_t total);

 private:
  static bool stream_is_tty(const std::ostream& os);

  std::mutex mu_;
  std::ostream& os_;
  std::string tag_;
  bool tty_;
  std::size_t last_decile_ = 0;  // milestones printed so far (non-TTY mode)
};

}  // namespace essat::exp
