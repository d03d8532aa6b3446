#include "src/baselines/sync_stack.h"

#include <stdexcept>

#include "src/core/nts.h"
#include "src/harness/scenario.h"
#include "src/snap/serializer.h"

namespace essat::baselines {

void SyncPowerManager::on_tree_ready(const harness::StackContext& ctx) {
  if (ctx.config.faults.drift.enabled()) {
    throw std::invalid_argument{
        "faults.drift is not modelled for SYNC: its duty windows do not "
        "follow per-node clocks"};
  }
}

std::unique_ptr<query::TrafficShaper> SyncPowerManager::make_shaper(
    const harness::StackContext&, const harness::NodeHandles&) {
  // The query service runs greedily on top of the MAC-layer power
  // management; generous loss timeout (per-hop buffering delays exceed
  // rank-based budgets, ~1 beacon interval per hop).
  return std::make_unique<core::NtsShaper>(
      core::NtsParams{.full_period_deadline = true, .deadline_periods = 3.0});
}

core::SafeSleep* SyncPowerManager::attach_node(const harness::StackContext& ctx,
                                               const harness::NodeHandles& node) {
  auto sync = std::make_unique<SyncNode>(ctx.sim, node.radio, node.mac, params_);
  sync->start(ctx.setup_end);
  sync_nodes_.push_back(std::move(sync));
  return nullptr;  // the duty schedule manages the radio, not Safe Sleep
}

void SyncPowerManager::save_state(snap::Serializer& out) const {
  out.begin("PMSY");
  out.u64(sync_nodes_.size());
  for (const auto& node : sync_nodes_) node->save_state(out);
  out.end();
}

}  // namespace essat::baselines
