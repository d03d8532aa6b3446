// SPAN baseline policy: an elected coordinator backbone keeps its radios
// always on while leaves run NTS with Safe Sleep (§5's modified setup).
// Reuses the generic ESSAT "shaper + Safe Sleep" wiring, with sleeping
// disabled on the backbone; the election runs once the routing tree is
// final. The "SPAN" row of the policy table (src/harness/power_manager.cpp).
#pragma once

#include "src/baselines/span.h"
#include "src/core/essat_stack.h"
#include "src/harness/power_manager.h"

namespace essat::baselines {

class SpanPowerManager : public core::EssatPowerManager {
 public:
  SpanPowerManager();

  void on_tree_ready(const harness::StackContext& ctx) override;
  int backbone_size() const override { return election_.coordinator_count; }

  // Snapshot hook: the elected backbone plus the base's SafeSleep fleet.
  void save_state(snap::Serializer& out) const override;

 private:
  SpanElection election_;
};

}  // namespace essat::baselines
