// Topology repair (§4.3, "Topology changes"): when persistent node or link
// failures are detected, "the query service or routing protocol is
// responsible for reconfiguring the routing tree". RepairService performs
// the structural changes and reports exactly which nodes' ranks changed so
// shapers can react per protocol (NTS: nothing; STS: recompute s/r; DTS:
// one phase update on the first report to the new parent).
//
// Candidate parents are ranked by the installed ParentPolicy
// (path_cost + link_cost, lowest wins, ascending-id first on ties); the
// default MinHopPolicy picks the lowest level.
// Retries: a failed repair used to strand the node until the maintenance
// thresholds re-triggered at their fixed cadence — after mass churn every
// stranded node retried in lockstep. With enable_retries() a failed
// reparent/rejoin re-arms itself with bounded exponential backoff and
// deterministic jitter drawn from a forked per-trial RNG stream, so retry
// storms de-synchronize while staying bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/net/topology.h"
#include "src/routing/tree.h"
#include "src/sim/timer.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace essat::routing {

class ParentPolicy;

class RepairService {
 public:
  struct Hooks {
    // Fired for each member whose rank changed after a repair.
    std::function<void(net::NodeId node)> on_rank_changed;
    // Fired on the (surviving) parent that lost `child`.
    std::function<void(net::NodeId parent, net::NodeId child)> on_child_removed;
    // Fired on the node that gained a new parent, and on that parent.
    std::function<void(net::NodeId child, net::NodeId new_parent)> on_parent_changed;
  };

  RepairService(const net::Topology& topo, Tree& tree, Hooks hooks = {});

  // Hooks may be installed after construction (the maintenance service that
  // provides them needs a reference to this object first).
  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  // Installs the parent-selection policy (non-owning; must outlive this
  // service). Until then the shared default_policy() ranks candidates.
  void set_policy(ParentPolicy& policy) { policy_ = &policy; }

  // Lets repairs emit kParentChange trace records (the service itself has no
  // simulator dependency otherwise). nullptr = no tracing from repairs.
  void set_tracer(const sim::Simulator* sim) { trace_sim_ = sim; }

  // Child-side recovery: `n` can no longer reach its parent. Re-attaches n
  // (with its subtree) under the best alive neighbor: a tree member, not in
  // n's own subtree, lowest level. Returns false when no candidate exists
  // (n stays orphaned). `alive` filters candidates.
  bool reparent(net::NodeId n, const std::function<bool(net::NodeId)>& alive);

  // Parent-side recovery: `failed` is dead. Removes it; each orphaned child
  // attempts reparent(). Returns the orphans that could not be re-attached.
  std::vector<net::NodeId> remove_failed_node(
      net::NodeId failed, const std::function<bool(net::NodeId)>& alive);

  // --- Bounded-backoff retries -------------------------------------------
  struct RetryParams {
    util::Time base = util::Time::from_milliseconds(250);
    util::Time cap = util::Time::seconds(8);  // delay ceiling (bounded)
    int max_attempts = 8;                     // retries after the first failure
    double jitter_frac = 0.25;                // delay *= 1 + U(-f, +f)
  };

  // Turns on retry scheduling: any reparent()/request_rejoin() that finds
  // no candidate re-arms itself per RetryParams. `alive` filters candidates
  // and abandons retries for nodes that died again; `rng` should be a
  // dedicated fork of the trial's master stream.
  void enable_retries(sim::Simulator& sim, util::Rng&& rng, RetryParams params,
                      std::function<bool(net::NodeId)> alive);

  // Fired when a request_rejoin() attempt (immediate or retried) succeeds —
  // the harness rebuilds the node's stack here.
  void set_rejoin_callback(std::function<void(net::NodeId)> cb) {
    rejoin_cb_ = std::move(cb);
  }

  // Re-attaches a restarted non-member node under its best alive member
  // neighbor: one immediate attempt, then backoff retries (when enabled).
  // A node that is already a member just fires the rejoin callback.
  void request_rejoin(net::NodeId n);

  // Repair attempts (reparent, orphan re-attach, rejoin) made on behalf of
  // `n` so far — successful or not. Surfaces as NodeDiag::repair_attempts.
  std::uint64_t repair_attempts(net::NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    return i < attempts_.size() ? attempts_[i] : 0;
  }

 private:
  void fire_rank_changes_(const std::vector<int>& ranks_before);
  std::vector<int> snapshot_ranks_() const;
  // Best alive member neighbor of `n` (excluding `exclude` and, when
  // `subtree_check`, n's own subtree), by policy score.
  net::NodeId pick_parent_(net::NodeId n, net::NodeId exclude, bool subtree_check,
                           const std::function<bool(net::NodeId)>& alive) const;
  void note_attempt_(net::NodeId n);
  bool try_rejoin_(net::NodeId n);
  void schedule_retry_(net::NodeId n, bool rejoin);
  void run_retry_(net::NodeId n);
  void clear_retry_(net::NodeId n);

  const net::Topology& topo_;
  Tree& tree_;
  Hooks hooks_;
  ParentPolicy* policy_;
  const sim::Simulator* trace_sim_ = nullptr;

  // Retry state (absent until enable_retries()).
  struct Retry {
    explicit Retry(sim::Simulator& sim) : timer(sim) {}
    int attempts = 0;
    bool rejoin = false;
    sim::Timer timer;
  };
  bool retries_enabled_ = false;
  sim::Simulator* retry_sim_ = nullptr;
  std::optional<util::Rng> retry_rng_;
  RetryParams retry_params_;
  std::function<bool(net::NodeId)> retry_alive_;
  std::map<net::NodeId, Retry> retries_;  // node-stable addresses (timers)
  std::function<void(net::NodeId)> rejoin_cb_;
  std::vector<std::uint64_t> attempts_;
};

}  // namespace essat::routing
