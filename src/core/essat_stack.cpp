#include "src/core/essat_stack.h"

#include "src/harness/scenario.h"
#include "src/snap/serializer.h"

namespace essat::core {

SafeSleep* EssatPowerManager::attach_node(const harness::StackContext& ctx,
                                          const harness::NodeHandles& node) {
  auto sleeper = std::make_unique<SafeSleep>(
      ctx.sim, node.radio, node.mac,
      SafeSleepParams{.t_be = ctx.config.t_be,
                      .enabled = !sleep_enabled_ || sleep_enabled_(node)});
  sleeper->set_setup_end(ctx.setup_end);
  sleepers_.push_back(std::move(sleeper));
  return sleepers_.back().get();
}

void EssatPowerManager::save_state(snap::Serializer& out) const {
  out.begin("PMES");
  out.u64(sleepers_.size());
  for (const auto& s : sleepers_) s->save_state(out);
  out.end();
}

}  // namespace essat::core
