// Experiment metrics: the quantities the paper's evaluation (§5) plots.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/energy/sleep_histogram.h"
#include "src/net/types.h"
#include "src/query/query.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::harness {

// Per-run results.
struct RunMetrics {
  // Energy efficiency (§5.1): duty cycle averaged over tree members.
  double avg_duty_cycle = 0.0;
  std::vector<double> duty_by_rank;  // index = rank (Fig. 5)

  // Query performance (§5.2): per-epoch latency = (last report arrival at
  // the root) - (epoch start), averaged over epochs and queries.
  double avg_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double max_latency_s = 0.0;
  // Fraction of source readings that reached the root per epoch.
  double delivery_ratio = 0.0;
  std::uint64_t epochs_measured = 0;

  // Break-even-time analysis (§5.3): completed sleep intervals of the live
  // tree members, binned for Fig. 8, and the share shorter than 2.5 ms.
  energy::SleepHistogram sleep_hist;
  double frac_sleep_below_2_5ms = 0.0;

  // DTS synchronization overhead (§4.2.3): piggybacked phase-update bits
  // per data report (the paper reports < 1 bit/report).
  double phase_update_bits_per_report = 0.0;
  std::uint64_t phase_updates = 0;

  // Per-node diagnostics (rank, duty, failure breakdown).
  struct NodeDiag {
    net::NodeId id = net::kNoNode;
    int rank = -1;
    int level = -1;
    bool leaf = false;
    double duty_cycle = 0.0;
    std::uint64_t reports_sent = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t pass_through = 0;
    std::uint64_t child_timeouts = 0;
    // MAC retry attribution (see mac::MacStats): retransmissions after a
    // missing ACK vs carrier-busy access defers (which retransmit nothing).
    std::uint64_t retx_no_ack = 0;
    std::uint64_t cca_busy_defers = 0;
    // Tree-repair attempts (reparents, orphan re-attaches, rejoin retries)
    // made on this node's behalf (routing::RepairService).
    std::uint64_t repair_attempts = 0;
  };
  std::vector<NodeDiag> per_node;

  // Substrate counters.
  std::uint64_t reports_sent = 0;
  std::uint64_t mac_transmissions = 0;
  std::uint64_t mac_send_failures = 0;
  // Totals of the per-node retry attribution over tree members.
  std::uint64_t mac_retx_no_ack = 0;
  std::uint64_t mac_cca_busy_defers = 0;
  std::uint64_t channel_collisions = 0;
  std::uint64_t channel_delivered = 0;
  // Frames the link model declared undecodable (0 under the unit disc).
  std::uint64_t channel_dropped_by_model = 0;
  std::uint64_t pass_through_forwarded = 0;
  int tree_members = 0;
  int max_rank = 0;
  int backbone_size = 0;  // SPAN coordinators

  // Simulation-core counters (perfbench turns these plus wall time into
  // sim.events and sim.ns_per_event; see perfbench/perfbench.cpp).
  std::uint64_t sim_events = 0;            // events executed by this run
  std::uint64_t peak_pending_events = 0;   // event-queue high-water mark

  // Fault injection (src/fault). All zero when FaultSpec is disabled.
  std::uint64_t node_deaths = 0;        // churn + battery deaths
  double downtime_s = 0.0;              // node-seconds down in the window
  // Delivery ratio over the epochs that started while >= 1 node was down
  // (0 when no epoch overlapped an outage).
  double delivery_during_fault = 0.0;
};

// Accumulates data-report arrivals at the root and turns them into the
// paper's query-latency metric.
class LatencyCollector {
 public:
  // Record one report reaching the root.
  void on_root_arrival(const query::Query& q, std::int64_t epoch,
                       util::Time arrival, int contributions);

  struct Summary {
    double avg_s = 0.0;
    double p95_s = 0.0;
    double max_s = 0.0;
    double delivery_ratio = 0.0;
    std::uint64_t epochs = 0;
  };
  // Latency over epochs whose start lies in [begin, end - grace); epochs
  // still in flight near the end are excluded. `expected_contributions` is
  // the number of source readings per epoch (tree members minus the root).
  Summary summarize(util::Time begin, util::Time end, util::Time grace,
                    int expected_contributions) const;
  // As above, restricted to epochs whose start also satisfies the filter
  // (fault engine: epochs that began during an outage).
  Summary summarize(util::Time begin, util::Time end, util::Time grace,
                    int expected_contributions,
                    const std::function<bool(util::Time)>& epoch_filter) const;

  // Snapshot hook (attestation only: restore replays). epochs_ is an
  // ordered map, so serialization order is deterministic.
  void save_state(snap::Serializer& out) const;

 private:
  struct EpochRecord {
    util::Time epoch_start;
    util::Time last_arrival;
    int contributions = 0;
  };
  std::map<std::pair<net::QueryId, std::int64_t>, EpochRecord> epochs_;
};

}  // namespace essat::harness
