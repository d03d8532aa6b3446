#include "src/routing/repair.h"

#include <algorithm>
#include <limits>

#include "src/routing/parent_policy.h"
#include "src/sim/simulator.h"

namespace essat::routing {

RepairService::RepairService(const net::Topology& topo, Tree& tree, Hooks hooks)
    : topo_{topo},
      tree_{tree},
      hooks_{std::move(hooks)},
      policy_{&default_policy()} {}

std::vector<int> RepairService::snapshot_ranks_() const {
  std::vector<int> out(tree_.num_nodes(), -1);
  for (net::NodeId n : tree_.members()) {
    out[static_cast<std::size_t>(n)] = tree_.rank(n);
  }
  return out;
}

void RepairService::fire_rank_changes_(const std::vector<int>& ranks_before) {
  if (!hooks_.on_rank_changed) return;
  for (net::NodeId n : tree_.members()) {
    if (tree_.rank(n) != ranks_before[static_cast<std::size_t>(n)]) {
      hooks_.on_rank_changed(n);
    }
  }
}

net::NodeId RepairService::pick_parent_(
    net::NodeId n, net::NodeId exclude, bool subtree_check,
    const std::function<bool(net::NodeId)>& alive) const {
  net::NodeId best = net::kNoNode;
  double best_score = std::numeric_limits<double>::infinity();
  for (net::NodeId cand : topo_.neighbors(n)) {
    if (!tree_.is_member(cand)) continue;
    if (cand == exclude) continue;
    if (subtree_check && tree_.in_subtree(n, cand)) continue;
    if (alive && !alive(cand)) continue;
    const double score =
        policy_->path_cost(tree_, cand) + policy_->link_cost(n, cand);
    if (score < best_score) {
      best_score = score;
      best = cand;
    }
  }
  return best;
}

bool RepairService::reparent(net::NodeId n,
                             const std::function<bool(net::NodeId)>& alive) {
  if (!tree_.is_member(n)) return false;
  note_attempt_(n);
  // Exclude the unreachable parent and n's own subtree.
  const net::NodeId best = pick_parent_(n, tree_.parent(n), true, alive);
  if (best == net::kNoNode) {
    schedule_retry_(n, /*rejoin=*/false);
    return false;
  }
  clear_retry_(n);

  const auto ranks_before = snapshot_ranks_();
  const net::NodeId old_parent = tree_.parent(n);
  tree_.change_parent(n, best);
  tree_.recompute_ranks();
  if (hooks_.on_child_removed && old_parent != net::kNoNode &&
      tree_.is_member(old_parent)) {
    hooks_.on_child_removed(old_parent, n);
  }
  if (hooks_.on_parent_changed) hooks_.on_parent_changed(n, best);
  if (trace_sim_ != nullptr) {
    ESSAT_TRACE(*trace_sim_, obs::TraceType::kParentChange, n, 0,
                static_cast<std::uint64_t>(old_parent),
                static_cast<std::uint64_t>(best));
  }
  fire_rank_changes_(ranks_before);
  return true;
}

std::vector<net::NodeId> RepairService::remove_failed_node(
    net::NodeId failed, const std::function<bool(net::NodeId)>& alive) {
  if (!tree_.is_member(failed)) return {};
  const auto ranks_before = snapshot_ranks_();
  const net::NodeId parent = tree_.parent(failed);
  const std::vector<net::NodeId> orphans = tree_.remove_node(failed);
  tree_.recompute_ranks();
  if (hooks_.on_child_removed && parent != net::kNoNode && tree_.is_member(parent)) {
    hooks_.on_child_removed(parent, failed);
  }
  fire_rank_changes_(ranks_before);

  // Re-attach orphaned subtree roots bottom-up: each orphan rejoins through
  // any alive member neighbor.
  std::vector<net::NodeId> stranded;
  for (net::NodeId orphan : orphans) {
    if (!alive || alive(orphan)) {
      note_attempt_(orphan);
      // Orphans lost membership; re-add under the best member neighbor (no
      // subtree exclusion needed — the orphan's old subtree lost membership
      // with it).
      const net::NodeId best = pick_parent_(orphan, net::kNoNode, false, alive);
      if (best != net::kNoNode) {
        const auto before = snapshot_ranks_();
        tree_.add_node(orphan, best);
        tree_.recompute_ranks();
        if (hooks_.on_parent_changed) hooks_.on_parent_changed(orphan, best);
        if (trace_sim_ != nullptr) {
          ESSAT_TRACE(*trace_sim_, obs::TraceType::kParentChange, orphan, 0,
                      static_cast<std::uint64_t>(failed),
                      static_cast<std::uint64_t>(best));
        }
        fire_rank_changes_(before);
        continue;
      }
    }
    stranded.push_back(orphan);
    // A stranded live orphan keeps trying on its own backoff clock (it lost
    // membership, so the path back in is a rejoin, not a reparent).
    if (!alive || alive(orphan)) schedule_retry_(orphan, /*rejoin=*/true);
  }
  return stranded;
}

// --------------------------------------------------------------- retries

void RepairService::note_attempt_(net::NodeId n) {
  const auto i = static_cast<std::size_t>(n);
  if (i >= attempts_.size()) attempts_.resize(tree_.num_nodes(), 0);
  if (i < attempts_.size()) ++attempts_[i];
}

void RepairService::enable_retries(sim::Simulator& sim, util::Rng&& rng,
                                   RetryParams params,
                                   std::function<bool(net::NodeId)> alive) {
  retries_enabled_ = true;
  retry_sim_ = &sim;
  retry_rng_.emplace(std::move(rng));
  retry_params_ = params;
  retry_alive_ = std::move(alive);
}

void RepairService::request_rejoin(net::NodeId n) {
  if (auto it = retries_.find(n); it != retries_.end()) {
    it->second.attempts = 0;  // a fresh rejoin request restarts the budget
    it->second.timer.cancel();
  }
  if (!try_rejoin_(n)) schedule_retry_(n, /*rejoin=*/true);
}

bool RepairService::try_rejoin_(net::NodeId n) {
  note_attempt_(n);
  if (tree_.is_member(n)) {
    // Someone else's repair already pulled the node back in.
    clear_retry_(n);
    if (rejoin_cb_) rejoin_cb_(n);
    return true;
  }
  const net::NodeId best = pick_parent_(n, net::kNoNode, false, retry_alive_);
  if (best == net::kNoNode) return false;
  const auto ranks_before = snapshot_ranks_();
  tree_.add_node(n, best);
  tree_.recompute_ranks();
  if (hooks_.on_parent_changed) hooks_.on_parent_changed(n, best);
  if (trace_sim_ != nullptr) {
    ESSAT_TRACE(*trace_sim_, obs::TraceType::kParentChange, n, 0,
                static_cast<std::uint64_t>(net::kNoNode),
                static_cast<std::uint64_t>(best));
  }
  fire_rank_changes_(ranks_before);
  clear_retry_(n);
  if (rejoin_cb_) rejoin_cb_(n);
  return true;
}

void RepairService::schedule_retry_(net::NodeId n, bool rejoin) {
  if (!retries_enabled_) return;
  auto [it, inserted] = retries_.try_emplace(n, *retry_sim_);
  Retry& r = it->second;
  r.rejoin = rejoin;
  if (r.attempts >= retry_params_.max_attempts) return;  // budget exhausted
  // Bounded exponential backoff: base * 2^attempts, capped, with
  // deterministic jitter so post-churn retry storms de-synchronize.
  const int exp = std::min(r.attempts, 30);
  double delay_s = retry_params_.base.to_seconds() *
                   static_cast<double>(std::uint64_t{1} << exp);
  delay_s = std::min(delay_s, retry_params_.cap.to_seconds());
  delay_s *= 1.0 + retry_params_.jitter_frac * retry_rng_->uniform(-1.0, 1.0);
  ++r.attempts;
  r.timer.arm_in(util::Time::from_seconds(std::max(delay_s, 1e-6)),
                 [this, n] { run_retry_(n); });
}

void RepairService::run_retry_(net::NodeId n) {
  const auto it = retries_.find(n);
  if (it == retries_.end()) return;
  const bool rejoin = it->second.rejoin;
  // Abandon retries for a node that died (again); a restart re-requests.
  if (retry_alive_ && !retry_alive_(n)) return;
  if (rejoin) {
    if (!try_rejoin_(n)) schedule_retry_(n, /*rejoin=*/true);
  } else {
    // reparent() re-arms itself on failure.
    (void)reparent(n, retry_alive_);
  }
}

void RepairService::clear_retry_(net::NodeId n) { retries_.erase(n); }

}  // namespace essat::routing
