// ESSAT power-management policies (NTS-SS / STS-SS / DTS-SS): one of the
// paper's traffic shapers per node, each feeding a per-node Safe Sleep
// scheduler. The "NTS-SS", "STS-SS" and "DTS-SS" rows of the policy table
// (src/harness/power_manager.cpp).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/harness/power_manager.h"

namespace essat::core {

// Generic "shaper + Safe Sleep on every tree member" policy; the shaper
// flavor is injected. SPAN derives from it, keeping Safe Sleep disabled on
// its coordinator backbone via the sleep predicate.
class EssatPowerManager : public harness::PowerManager {
 public:
  using ShaperFactory = std::function<std::unique_ptr<query::TrafficShaper>(
      const harness::ScenarioConfig&)>;
  // Whether a given node's Safe Sleep actually sleeps (default: all do);
  // disabled instances keep the radio always on.
  using SleepEnabledFn = std::function<bool(const harness::NodeHandles&)>;

  explicit EssatPowerManager(ShaperFactory factory,
                             SleepEnabledFn sleep_enabled = nullptr)
      : factory_(std::move(factory)), sleep_enabled_(std::move(sleep_enabled)) {}

  std::unique_ptr<query::TrafficShaper> make_shaper(
      const harness::StackContext& ctx, const harness::NodeHandles&) override {
    return factory_(ctx.config);
  }

  core::SafeSleep* attach_node(const harness::StackContext& ctx,
                               const harness::NodeHandles& node) override;

  // Snapshot hook: every attached SafeSleep, in attach order (== ascending
  // member id, the order run_scenario builds per-node stacks).
  void save_state(snap::Serializer& out) const override;

 private:
  ShaperFactory factory_;
  SleepEnabledFn sleep_enabled_;
  std::vector<std::unique_ptr<SafeSleep>> sleepers_;
};

}  // namespace essat::core
