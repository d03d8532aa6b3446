#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/scenario.h"

namespace essat::harness {
namespace {

using util::Time;

ScenarioConfig smoke_config(ProtocolKey protocol) {
  ScenarioConfig c;
  c.protocol = std::move(protocol);
  c.deployment.num_nodes = 10;
  c.deployment.area_m = 200.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 200.0;
  c.workload.base_rate_hz = 1.0;
  c.workload.query_start_window = Time::seconds(2);
  c.setup_duration = Time::seconds(2);
  c.measure_duration = Time::seconds(8);
  c.latency_grace = Time::seconds(2);
  c.seed = 9;
  return c;
}

constexpr Protocol kAllProtocols[] = {Protocol::kNtsSs, Protocol::kStsSs,
                                      Protocol::kDtsSs, Protocol::kSync,
                                      Protocol::kPsm,   Protocol::kSpan};

// Every enumerator names its table row, in enum order, and its name as a
// string key compares equal to the enumerator's key.
TEST(ProtocolTable, EveryProtocolRoundTripsThroughItsName) {
  std::vector<std::string> names;
  for (Protocol p : kAllProtocols) {
    const std::string name = protocol_name(p);
    EXPECT_EQ(ProtocolKey{name}, p) << name;
    names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"NTS-SS", "STS-SS", "DTS-SS",
                                             "SYNC", "PSM", "SPAN"}));
}

// Every protocol, looked up by its string key, must assemble and run a
// 10-node smoke scenario: the table round-trip from name to working
// per-node stack.
TEST(ProtocolTable, EveryProtocolRunsSmokeScenario) {
  for (Protocol p : kAllProtocols) {
    SCOPED_TRACE(protocol_name(p));
    const RunMetrics m = run_scenario(smoke_config(std::string{protocol_name(p)}));
    EXPECT_GT(m.tree_members, 3);
    EXPECT_GT(m.reports_sent, 0u);
    EXPECT_GT(m.avg_duty_cycle, 0.0);
    EXPECT_LE(m.avg_duty_cycle, 1.0);
  }
}

TEST(ProtocolTable, UnknownPolicyFailsLoudly) {
  try {
    run_scenario(smoke_config("NO-SUCH-POLICY"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the key and lists all six names, so typos are
    // self-diagnosing.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NO-SUCH-POLICY"), std::string::npos) << msg;
    for (Protocol p : kAllProtocols) {
      EXPECT_NE(msg.find(protocol_name(p)), std::string::npos) << msg;
    }
  }
}

TEST(ProtocolName, FailsLoudlyOnUnknownEnum) {
  EXPECT_STREQ(protocol_name(Protocol::kNtsSs), "NTS-SS");
  EXPECT_THROW(protocol_name(static_cast<Protocol>(99)), std::invalid_argument);
}

TEST(ProtocolKey, ConvertsFromEnumAndString) {
  ScenarioConfig c;
  EXPECT_EQ(c.protocol, ProtocolKey{"DTS-SS"});  // default
  c.protocol = Protocol::kPsm;
  EXPECT_EQ(c.protocol.name, "PSM");
  c.protocol = "SPAN";
  EXPECT_EQ(c.protocol, Protocol::kSpan);
  EXPECT_NE(c.protocol, Protocol::kSync);
}

}  // namespace
}  // namespace essat::harness
