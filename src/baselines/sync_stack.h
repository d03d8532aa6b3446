// SYNC baseline policy: a network-synchronized fixed duty cycle per node
// (SyncNode), with the query service running greedily on top (NTS shaper
// with a generous loss timeout — per-hop buffering delays exceed the
// rank-based budgets). The "SYNC" row of the policy table
// (src/harness/power_manager.cpp).
#pragma once

#include <memory>
#include <vector>

#include "src/baselines/sync.h"
#include "src/harness/power_manager.h"

namespace essat::baselines {

class SyncPowerManager : public harness::PowerManager {
 public:
  explicit SyncPowerManager(SyncParams params = {}) : params_(params) {}

  // Rejects clock drift with std::invalid_argument: drift acts at the
  // SafeSleep wake timer, which the duty schedule does not use, so a
  // drifted run would silently equal the undrifted one.
  void on_tree_ready(const harness::StackContext& ctx) override;

  std::unique_ptr<query::TrafficShaper> make_shaper(
      const harness::StackContext& ctx, const harness::NodeHandles& node) override;
  core::SafeSleep* attach_node(const harness::StackContext& ctx,
                               const harness::NodeHandles& node) override;

  // Snapshot hook: every SyncNode in attach order.
  void save_state(snap::Serializer& out) const override;

 private:
  SyncParams params_;
  std::vector<std::unique_ptr<SyncNode>> sync_nodes_;
};

}  // namespace essat::baselines
