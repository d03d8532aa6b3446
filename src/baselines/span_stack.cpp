#include "src/baselines/span_stack.h"

#include "src/core/nts.h"
#include "src/snap/serializer.h"

namespace essat::baselines {

SpanPowerManager::SpanPowerManager()
    : core::EssatPowerManager(
          // Leaves (and, harmlessly, backbone nodes) run NTS (§5).
          [](const harness::ScenarioConfig&) {
            return std::make_unique<core::NtsShaper>();
          },
          // Safe Sleep only off the backbone: coordinators stay always on.
          [this](const harness::NodeHandles& node) {
            return !election_.coordinator.at(static_cast<std::size_t>(node.id));
          }) {}

void SpanPowerManager::on_tree_ready(const harness::StackContext& ctx) {
  election_ = elect_coordinators(ctx.topo, ctx.tree, ctx.rng);
}

void SpanPowerManager::save_state(snap::Serializer& out) const {
  out.begin("PMSP");
  out.i32(election_.coordinator_count);
  out.u64(election_.coordinator.size());
  for (bool c : election_.coordinator) out.boolean(c);
  core::EssatPowerManager::save_state(out);
  out.end();
}

}  // namespace essat::baselines
