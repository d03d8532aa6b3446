// Per-node query-service agent (§3): drives epoch generation at the leaves,
// in-network aggregation at interior nodes, aggregation timeouts, and late
// pass-through forwarding — delegating all timing decisions to the
// installed TrafficShaper.
//
// Epoch lifecycle at a node:
//   ensure_epoch(k)  -> leaf: schedule submission at shaper.plan_send();
//                       interior: wait for children until
//                       shaper.aggregation_deadline(k)
//   child report     -> shaper.on_report_received; aggregate; finalize when
//                       all children reported
//   deadline fires   -> shaper.on_child_timeout for the missing children
//                       ("a parent times out and sends the aggregated data
//                       reports based on the ones it has received", §4.3)
//   finalize         -> aggregate own reading (T_comp), submit at
//                       shaper.plan_send(); open epoch k+1
//
// Reports that arrive after their epoch was finalized are forwarded to the
// parent unaggregated (pass-through), so data is delayed but never silently
// dropped by the aggregation schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/mac/csma.h"
#include "src/net/packet.h"
#include "src/query/query.h"
#include "src/query/traffic_shaper.h"
#include "src/routing/tree.h"
#include "src/sim/timer.h"
#include "src/util/small_vector.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::query {

struct QueryAgentParams {
  // Aggregation computation time T_comp (part of T_agg = T_collect + T_comp).
  util::Time t_comp = util::Time::from_milliseconds(5.0);
};

struct QueryAgentStats {
  std::uint64_t reports_sent = 0;
  std::uint64_t reports_received = 0;
  std::uint64_t pass_through_forwarded = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t partial_finalizes = 0;   // finalized with missing children
  std::uint64_t child_timeouts = 0;      // individual missing-child events
  std::uint64_t phase_requests_sent = 0; // DTS resync requests (§4.3)
  std::uint64_t late_reports = 0;        // received after their epoch closed
};

class QueryAgent {
 public:
  // (query, epoch, arrival time, contributions) for every data report
  // reaching the root — the latency metric's raw stream.
  using RootArrivalHook =
      std::function<void(const Query&, std::int64_t, util::Time, int)>;
  // A unicast report exhausted its MAC retries toward `parent` (ok=false)
  // or was acknowledged (ok=true, clears consecutive-failure counters).
  using SendResultHook = std::function<void(net::NodeId parent, bool ok)>;
  // `child`'s epoch-`k` report missed the aggregation deadline.
  using ChildMissHook = std::function<void(net::NodeId child, std::int64_t k)>;
  // A (non-pass-through) report from `child` arrived — clears miss counters.
  using ChildHeardHook = std::function<void(net::NodeId child)>;

  QueryAgent(sim::Simulator& sim, mac::CsmaMac& mac, const routing::Tree& tree,
             net::NodeId self, TrafficShaper& shaper, QueryAgentParams params = {});

  // Query dissemination reached this node; starts the epoch chain.
  void register_query(const Query& q);

  // Restart path (fault engine): registers `q` on a freshly rebuilt agent
  // with the epoch chain starting at `first_epoch` instead of 0 — epochs
  // the node was dead for are treated as already finalized.
  void register_query_from(const Query& q, std::int64_t first_epoch);

  // Feed kData / kPhaseRequest packets addressed to this node.
  void handle_packet(const net::Packet& p);

  void set_root_arrival_hook(RootArrivalHook hook) { root_arrival_ = std::move(hook); }
  void set_send_result_hook(SendResultHook hook) { send_result_ = std::move(hook); }
  void set_child_miss_hook(ChildMissHook hook) { child_miss_ = std::move(hook); }
  void set_child_heard_hook(ChildHeardHook hook) { child_heard_ = std::move(hook); }

  // --- Maintenance entry points (§4.3) ----------------------------------
  // The routing layer removed `child` (persistent failure): purge it from
  // open epochs and the shaper/sleeper state.
  void child_removed(net::NodeId child);
  void child_added(net::NodeId child);
  // This node was re-attached to a new parent.
  void parent_changed();
  // This node's rank changed after a topology repair.
  void rank_changed();
  // Permanently stop (node death): cancels all timers.
  void halt();

  const QueryAgentStats& stats() const { return stats_; }
  bool is_leaf() const { return tree_.is_leaf(self_); }
  net::NodeId self() const { return self_; }

  // Snapshot hook: every open epoch (pending children, timers), watermarks,
  // dedup sequence maps, the provenance counter, pool high-water marks, and
  // counters. The upper-layer hooks are wiring, rebuilt by replay.
  void save_state(snap::Serializer& out) const;

 private:
  // Per-epoch record, pooled: the steady state of every node is "open
  // epoch k, close it, open k+1" at the query rate, and the legacy
  // std::map<k, {std::set children, 2x unique_ptr<Timer>}> paid four-plus
  // allocations per epoch for it. Records live in an agent-level free pool
  // (stable addresses — armed Timers must not move) and carry inline
  // SmallVector child sets, so epoch rollover touches the allocator only
  // on high-water growth.
  struct EpochState {
    explicit EpochState(sim::Simulator& sim) : deadline(sim), send(sim) {}
    std::int64_t k = 0;
    util::SmallVector<net::NodeId, 8> pending;  // children not yet reported
    int contributions = 0;
    bool finalizing = false;  // re-entrancy guard (hooks can call back in)
    sim::Timer deadline;
    sim::Timer send;
  };
  struct QueryState {
    Query q;
    // Open epochs, unordered (a handful at most: the current one plus any
    // straggling under pass-through). Scanned linearly by epoch number.
    util::SmallVector<EpochState*, 4> open;
    std::int64_t watermark = -1;  // highest finalized epoch
    std::map<net::NodeId, std::uint32_t> last_app_seq;
    std::uint32_t my_app_seq = 0;
  };

  EpochState* acquire_epoch_(QueryState& qs, std::int64_t k);
  void close_epoch_(QueryState& qs, EpochState* es);
  EpochState* find_epoch_(const QueryState& qs, std::int64_t k) const {
    for (EpochState* es : qs.open) {
      if (es->k == k) return es;
    }
    return nullptr;
  }

  void ensure_epoch_(QueryState& qs, std::int64_t k);
  void finalize_(QueryState& qs, std::int64_t k);
  void schedule_send_(QueryState& qs, std::int64_t k, EpochState& es,
                      int contributions, util::Time ready);
  void submit_report_(QueryState& qs, std::int64_t k, int contributions,
                      std::optional<util::Time> phase_update);
  void handle_data_(const net::Packet& p);
  void forward_pass_through_(const net::Packet& p);
  bool closed_(const QueryState& qs, std::int64_t k) const {
    return k <= qs.watermark && find_epoch_(qs, k) == nullptr;
  }

  sim::Simulator& sim_;
  mac::CsmaMac& mac_;
  const routing::Tree& tree_;
  net::NodeId self_;
  TrafficShaper& shaper_;
  QueryAgentParams params_;

  std::map<net::QueryId, QueryState> queries_;
  // Epoch-record pool: `records_` owns every EpochState ever created (their
  // addresses stay stable for the armed timers); `free_` lists the ones not
  // currently open anywhere. Bounded by the peak number of concurrently
  // open epochs, which is small and reached early.
  std::vector<std::unique_ptr<EpochState>> records_;
  std::vector<EpochState*> free_;
  bool halted_ = false;
  // Packet-lifecycle provenance: each submitted report gets
  // (self+1) << 32 | counter, unique across the run without coordination.
  std::uint64_t prov_seq_ = 0;

  RootArrivalHook root_arrival_;
  SendResultHook send_result_;
  ChildMissHook child_miss_;
  ChildHeardHook child_heard_;
  QueryAgentStats stats_;
};

}  // namespace essat::query
