#include "src/baselines/psm_stack.h"

#include <stdexcept>

#include "src/core/nts.h"
#include "src/harness/scenario.h"
#include "src/snap/serializer.h"

namespace essat::baselines {

void PsmPowerManager::on_tree_ready(const harness::StackContext& ctx) {
  if (ctx.config.faults.drift.enabled()) {
    throw std::invalid_argument{
        "faults.drift is not modelled for PSM: its beacon windows do not "
        "follow per-node clocks"};
  }
}

std::unique_ptr<query::TrafficShaper> PsmPowerManager::make_shaper(
    const harness::StackContext&, const harness::NodeHandles&) {
  // Same greedy service as SYNC: ATIM-interval buffering dominates, so the
  // loss timeout must span several beacon periods.
  return std::make_unique<core::NtsShaper>(
      core::NtsParams{.full_period_deadline = true, .deadline_periods = 3.0});
}

core::SafeSleep* PsmPowerManager::attach_node(const harness::StackContext& ctx,
                                              const harness::NodeHandles& node) {
  if (psm_nodes_.size() < ctx.topo.num_nodes()) {
    psm_nodes_.resize(ctx.topo.num_nodes());
  }
  auto psm = std::make_unique<PsmNode>(ctx.sim, node.radio, node.mac, params_);
  psm->start(ctx.setup_end);
  psm_nodes_[static_cast<std::size_t>(node.id)] = std::move(psm);
  return nullptr;  // the beacon schedule manages the radio, not Safe Sleep
}

void PsmPowerManager::handle_packet(net::NodeId id, const net::Packet& packet) {
  if (packet.type != net::PacketType::kAtim) return;
  const auto i = static_cast<std::size_t>(id);
  if (i < psm_nodes_.size() && psm_nodes_[i]) psm_nodes_[i]->handle_packet(packet);
}

void PsmPowerManager::save_state(snap::Serializer& out) const {
  out.begin("PMPS");
  out.u64(psm_nodes_.size());
  for (const auto& node : psm_nodes_) {
    out.boolean(node != nullptr);
    if (node) node->save_state(out);
  }
  out.end();
}

}  // namespace essat::baselines
