// Scenario: assembles the full per-node stack (radio, CSMA MAC, routing
// tree, query agent, and the power-management policy the config names)
// from a declarative config, runs the paper's experimental phasing (§5) as
// a Trial, and returns the measured metrics.
//
// Defaults reproduce the paper: 80 nodes uniform in 500x500 m^2, 125 m
// range, 1 Mbps 802.11-style MAC, 52-byte reports, root nearest the centre,
// tree over nodes within 300 m of the root, three query classes with rate
// ratio 6:3:2 starting at random times in a 10 s window, 200 s measured.
// The deployment (DeploymentSpec) and workload (WorkloadSpec) are open
// axes; the protocol is a string key naming one of the six policies.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/fault_spec.h"
#include "src/harness/metrics.h"
#include "src/mac/mac_params.h"
#include "src/net/channel.h"
#include "src/net/link_model.h"
#include "src/net/mobility.h"
#include "src/net/topology.h"
#include "src/net/types.h"
#include "src/obs/tracer.h"
#include "src/query/query.h"
#include "src/routing/parent_policy.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
struct TrialHookSpec;
}  // namespace essat::snap

namespace essat::harness {

// The paper's six protocols (§5), in the order of the policy table
// (power_manager.cpp); ProtocolKey is their string form.
enum class Protocol { kNtsSs, kStsSs, kDtsSs, kSync, kPsm, kSpan };
// The protocol's name, read from its table row. Fails loudly: throws
// std::invalid_argument for out-of-range enum values.
const char* protocol_name(Protocol p);

// String key selecting the power-management policy. Implicitly converts
// from the Protocol enum and from string literals, so both
// `config.protocol = Protocol::kDtsSs` and `config.protocol = "DTS-SS"`
// read naturally. A key that names no policy throws when the Trial builds.
struct ProtocolKey {
  std::string name = "DTS-SS";

  ProtocolKey() = default;
  ProtocolKey(Protocol p) : name(protocol_name(p)) {}
  ProtocolKey(std::string n) : name(std::move(n)) {}
  ProtocolKey(const char* n) : name(n) {}

  const char* c_str() const { return name.c_str(); }

  friend bool operator==(const ProtocolKey& a, const ProtocolKey& b) {
    return a.name == b.name;
  }
  friend bool operator!=(const ProtocolKey& a, const ProtocolKey& b) {
    return !(a == b);
  }
};
std::ostream& operator<<(std::ostream& os, const ProtocolKey& key);

// Declarative workload: the paper's three query classes with rate ratio
// 6:3:2 (§5), scaled by base_rate_hz and replicated queries_per_class
// times, plus any hand-crafted extra queries.
struct WorkloadSpec {
  double base_rate_hz = 1.0;
  int queries_per_class = 1;
  // Query starts are spread uniformly over this window after setup.
  util::Time query_start_window = util::Time::seconds(10);
  // Additional hand-crafted queries (phases are absolute sim times); used
  // by examples, e.g. a mid-run workload surge.
  std::vector<query::Query> extra_queries;
};

struct ScenarioConfig {
  // Power-management policy: one of the six protocol_name()s.
  ProtocolKey protocol;

  // Deployment (§5 defaults: 80 nodes uniform random, 500 m square,
  // 125 m range, 300 m tree cap). See net::DeploymentSpec for the other
  // topology shapes (grid, line, clustered, corridor).
  net::DeploymentSpec deployment;

  // Workload (§5).
  WorkloadSpec workload;

  // Channel realism: the per-link loss model layered on the unit disc
  // (default: lossless unit disc, the paper's ns-2 radio). Sweepable via
  // exp::SweepSpec::axis_channel.
  net::ChannelModelSpec channel_model;

  // Medium mechanics: propagation delay, capture, SINR, and the
  // dense/sparse threshold for per-link statistics storage. Defaults
  // reproduce the paper's setup; the thresholds exist for the city-scale
  // benches and the dense-vs-sparse A/B equivalence tests.
  net::ChannelParams channel_params;

  // Mobility: the position source backing the topology (default: static,
  // the paper's frozen deployment — the exact legacy code path). Built per
  // trial from its own forked RNG stream; sweepable via
  // exp::SweepSpec::axis_mobility. Under mobility, pair with
  // enable_maintenance so broken links trigger tree repair.
  net::MobilitySpec mobility;

  // Parent selection for tree construction and repair: "min-hop" (default,
  // the paper's lowest-level rule) or "etx" (link-quality-aware over the
  // channel's loss statistics). Sweepable via exp::SweepSpec::axis_routing.
  routing::RoutingSpec routing;

  // Phasing: setup slot, then query starts spread over the start window,
  // then the measurement window.
  util::Time setup_duration = util::Time::seconds(5);
  util::Time measure_duration = util::Time::seconds(200);
  util::Time latency_grace = util::Time::seconds(5);

  // Radio / Safe Sleep. Transition latencies are t_be/2 each way, so the
  // break-even time equals t_be [Benini et al.].
  util::Time t_be = util::Time::from_milliseconds(2.5);

  // Shaper knobs.
  std::optional<util::Time> sts_deadline;  // Fig. 2 sweep; default: D = P
  util::Time dts_t_to = util::Time::from_milliseconds(100.0);
  util::Time t_comp = util::Time::from_milliseconds(5.0);

  // MAC parameters (802.11b at 1 Mbps by default).
  mac::MacParams mac_params;

  // §4.3 failure handling: detection thresholds + repair. Off by default
  // (the paper's main experiments inject no failures). To kill a node, add
  // a permanent entry to faults.churn.scheduled.
  bool enable_maintenance = false;

  // Unified fault injection (src/fault): churn with full stack teardown and
  // restart, finite battery budgets, per-node clock drift. Disabled by
  // default — the engine is then never constructed and the run executes the
  // exact legacy event stream. Enabling faults implies maintenance (crash
  // detection drives tree repair). Sweepable via exp::SweepSpec::axis_faults.
  fault::FaultSpec faults;

  // Observability (src/obs): when trace.enabled, the run gets a Tracer and
  // drives the configured exporters after the run. Tracing only records, so
  // no trace setting changes the trial. Off by default — the disabled path
  // costs one predictable branch per instrumentation site.
  obs::TraceSpec trace;

  std::uint64_t seed = 1;
};

// One trial of the paper's phased experiment. The constructor is the build
// phase (placement, channel, routing tree, per-node stacks, fault schedule,
// phase plan); the workload is drawn when the setup slot ends, and
// measurement runs to measure_end().
class Trial {
 public:
  explicit Trial(const ScenarioConfig& config);
  ~Trial();

  util::Time measure_end() const;

  // Runs every event with time <= t. An earlier t is a no-op; a t past
  // measure_end() throws std::invalid_argument.
  void advance_to(util::Time t);

  // Writes every component into one "TRST" section: the bytes a snapshot
  // captures and a resume attests. Pure reads.
  void save_state(snap::Serializer& out) const;

  // Runs to measure_end(), exports traces and collects the metrics. Once.
  RunMetrics finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// A straight run: Trial{config}.finish().
RunMetrics run_scenario(const ScenarioConfig& config);

// perfbench's set-up timer (src/snap/hook.h): hook.hook sees the trial
// paused at hook.at.
RunMetrics run_scenario(const ScenarioConfig& config,
                        const snap::TrialHookSpec& hook);

}  // namespace essat::harness
