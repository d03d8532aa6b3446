// PSM baseline policy: 802.11 power-save mode with traffic announcements
// (PsmNode) per node; ATIM control packets are routed back to the owning
// node through handle_packet. The "PSM" row of the policy table
// (src/harness/power_manager.cpp).
#pragma once

#include <memory>
#include <vector>

#include "src/baselines/psm.h"
#include "src/harness/power_manager.h"

namespace essat::baselines {

class PsmPowerManager : public harness::PowerManager {
 public:
  explicit PsmPowerManager(PsmParams params = {}) : params_(params) {}

  std::unique_ptr<query::TrafficShaper> make_shaper(
      const harness::StackContext& ctx, const harness::NodeHandles& node) override;
  core::SafeSleep* attach_node(const harness::StackContext& ctx,
                               const harness::NodeHandles& node) override;
  void handle_packet(net::NodeId id, const net::Packet& packet) override;

  // Snapshot hook: every PsmNode by node id (absent slots flagged).
  void save_state(snap::Serializer& out) const override;

 private:
  PsmParams params_;
  std::vector<std::unique_ptr<PsmNode>> psm_nodes_;  // indexed by node id
};

}  // namespace essat::baselines
