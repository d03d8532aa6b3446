#include "src/harness/power_manager.h"

#include <iterator>
#include <stdexcept>
#include <string>

#include "src/baselines/psm_stack.h"
#include "src/baselines/span_stack.h"
#include "src/baselines/sync_stack.h"
#include "src/core/dts.h"
#include "src/core/essat_stack.h"
#include "src/core/nts.h"
#include "src/core/sts.h"
#include "src/harness/scenario.h"

namespace essat::harness {
namespace {

using ShaperFn = std::unique_ptr<query::TrafficShaper> (*)(const ScenarioConfig&);

std::unique_ptr<query::TrafficShaper> nts(const ScenarioConfig&) {
  return std::make_unique<core::NtsShaper>();
}
std::unique_ptr<query::TrafficShaper> sts(const ScenarioConfig& c) {
  return std::make_unique<core::StsShaper>(core::StsParams{.deadline = c.sts_deadline});
}
std::unique_ptr<query::TrafficShaper> dts(const ScenarioConfig& c) {
  return std::make_unique<core::DtsShaper>(core::DtsParams{.t_to = c.dts_t_to});
}

// An ESSAT policy: `shaper` on every tree member, each feeding Safe Sleep.
template <ShaperFn shaper>
std::unique_ptr<PowerManager> essat() {
  return std::make_unique<core::EssatPowerManager>(shaper);
}

template <typename Manager>
std::unique_ptr<PowerManager> make() {
  return std::make_unique<Manager>();
}

struct PolicyRow {
  const char* name;
  std::unique_ptr<PowerManager> (*make)();
};

// The paper's six policies (§5), in harness::Protocol order: the one place
// each protocol's name is spelled.
constexpr PolicyRow kPolicies[] = {
    {"NTS-SS", essat<nts>},
    {"STS-SS", essat<sts>},
    {"DTS-SS", essat<dts>},
    {"SYNC", make<baselines::SyncPowerManager>},
    {"PSM", make<baselines::PsmPowerManager>},
    {"SPAN", make<baselines::SpanPowerManager>},
};
static_assert(std::size(kPolicies) == static_cast<std::size_t>(Protocol::kSpan) + 1,
              "one row per harness::Protocol enumerator");

}  // namespace

const char* protocol_name(Protocol p) {
  const auto i = static_cast<std::size_t>(p);
  if (i >= std::size(kPolicies)) {
    throw std::invalid_argument{"protocol_name: unknown Protocol enum value"};
  }
  return kPolicies[i].name;
}

std::unique_ptr<PowerManager> make_power_manager(const std::string& name) {
  for (const PolicyRow& row : kPolicies) {
    if (name == row.name) return row.make();
  }
  std::string known;
  for (const PolicyRow& row : kPolicies) {
    known += (known.empty() ? "" : ", ") + std::string{row.name};
  }
  throw std::invalid_argument{"unknown power-management policy \"" + name +
                              "\" (known: " + known + ")"};
}

}  // namespace essat::harness
