// Averaged results of one experiment point: the paper averages each data
// point over five runs with varied node locations and query start times
// (§5), reporting 90% confidence intervals. exp::Aggregator folds the runs
// of a point into this struct, and exp::SweepRunner returns one per point.
#pragma once

#include <vector>

#include "src/harness/metrics.h"
#include "src/util/stats.h"

namespace essat::harness {

struct AveragedMetrics {
  util::RunningStat duty_cycle;           // fraction, not percent
  util::RunningStat latency_s;
  util::RunningStat p95_latency_s;
  util::RunningStat delivery_ratio;
  util::RunningStat phase_update_bits;
  util::RunningStat mac_send_failures;
  util::RunningStat channel_dropped;      // link-model drops per run
  util::RunningStat retx_no_ack;          // no-ACK retransmissions per run
  util::RunningStat cca_busy_defers;      // carrier-busy access defers per run
  // Fault injection (src/fault): all-zero when FaultSpec is disabled.
  util::RunningStat node_deaths;
  util::RunningStat downtime_s;
  util::RunningStat delivery_during_fault;
  std::vector<util::RunningStat> duty_by_rank;
  RunMetrics last_run;                    // histograms etc. from the final run

  double duty_ci90() const { return duty_cycle.ci_halfwidth(); }
  double latency_ci90() const { return latency_s.ci_halfwidth(); }
};

}  // namespace essat::harness
