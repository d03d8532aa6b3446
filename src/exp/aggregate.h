// Folds per-run RunMetrics into per-point AveragedMetrics.
//
// Runs MUST be folded in ascending repetition order: RunningStat's Welford
// update is order-sensitive at the bit level, and the engine's determinism
// guarantee (parallel output identical to serial) rests on every point
// folding its runs in that fixed order, whatever order they finish in.
#pragma once

#include "src/harness/metrics.h"
#include "src/harness/runner.h"

namespace essat::exp {

// One aggregated metric: its sink column, the AveragedMetrics accumulator
// it feeds, the per-run value folded into that accumulator, and the name
// of its 90% confidence-interval column (nullptr: none).
struct MetricColumn {
  const char* name;
  util::RunningStat harness::AveragedMetrics::*stat;
  double (*of_run)(const harness::RunMetrics&);
  const char* ci90_name = nullptr;
};

template <auto Member>
double run_value(const harness::RunMetrics& m) {
  return static_cast<double>(m.*Member);
}

// The single list of aggregated metrics. Aggregator::add folds every row;
// the JSONL sink emits a leading "runs" column, then each row's mean
// followed by its ci90 column, in table order. Adding a metric is one
// row here plus its AveragedMetrics member.
inline constexpr MetricColumn kMetricColumns[] = {
    {"duty_mean", &harness::AveragedMetrics::duty_cycle,
     run_value<&harness::RunMetrics::avg_duty_cycle>, "duty_ci90"},
    {"latency_mean", &harness::AveragedMetrics::latency_s,
     run_value<&harness::RunMetrics::avg_latency_s>, "latency_ci90"},
    {"p95_latency", &harness::AveragedMetrics::p95_latency_s,
     run_value<&harness::RunMetrics::p95_latency_s>},
    {"delivery_mean", &harness::AveragedMetrics::delivery_ratio,
     run_value<&harness::RunMetrics::delivery_ratio>},
    {"phase_bits_mean", &harness::AveragedMetrics::phase_update_bits,
     run_value<&harness::RunMetrics::phase_update_bits_per_report>},
    {"send_failures", &harness::AveragedMetrics::mac_send_failures,
     run_value<&harness::RunMetrics::mac_send_failures>},
    {"model_drops", &harness::AveragedMetrics::channel_dropped,
     run_value<&harness::RunMetrics::channel_dropped_by_model>},
    {"retx_no_ack", &harness::AveragedMetrics::retx_no_ack,
     run_value<&harness::RunMetrics::mac_retx_no_ack>},
    {"cca_busy_defers", &harness::AveragedMetrics::cca_busy_defers,
     run_value<&harness::RunMetrics::mac_cca_busy_defers>},
    {"node_deaths", &harness::AveragedMetrics::node_deaths,
     run_value<&harness::RunMetrics::node_deaths>},
    {"downtime_s", &harness::AveragedMetrics::downtime_s,
     run_value<&harness::RunMetrics::downtime_s>},
    {"delivery_during_fault", &harness::AveragedMetrics::delivery_during_fault,
     run_value<&harness::RunMetrics::delivery_during_fault>},
};

class Aggregator {
 public:
  // Folds one run; call in repetition order (seed base, base+1, ...).
  void add(harness::RunMetrics m);

  // The aggregate so far. `last_run` holds the most recently added run's
  // histograms and per-node diagnostics.
  const harness::AveragedMetrics& result() const { return out_; }
  harness::AveragedMetrics take() { return std::move(out_); }

 private:
  harness::AveragedMetrics out_;
};

}  // namespace essat::exp
