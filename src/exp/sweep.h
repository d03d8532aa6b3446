// Parameter-grid builder for experiment sweeps.
//
// A SweepSpec is a base ScenarioConfig plus any number of axes; each axis
// varies one aspect of the config across a list of labelled options. The
// cross product of all axes yields the sweep's points (row-major: the
// first axis declared is the outermost loop, matching the nested-loop
// order of the seed's hand-written bench drivers). Every point is run
// `runs_per_point` times with seeds base_seed, base_seed+1, ... — the
// paper's "five runs per data point" (§5).
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/scenario.h"

namespace essat::exp {

// One cell of the expanded grid.
struct SweepPoint {
  std::size_t index = 0;               // position in row-major grid order
  std::vector<std::string> labels;     // one per axis, in axis order
  harness::ScenarioConfig config;      // base config with all axes applied
};

class SweepSpec {
 public:
  using Apply = std::function<void(harness::ScenarioConfig&)>;

  explicit SweepSpec(harness::ScenarioConfig base) : base_(std::move(base)) {}

  // Repetitions per grid point (>= 1).
  SweepSpec& runs(int n) {
    runs_ = n < 1 ? 1 : n;
    return *this;
  }
  int runs_per_point() const { return runs_; }

  // Generic axis: each option is a label plus a mutation of the config.
  SweepSpec& axis(std::string name,
                  std::vector<std::pair<std::string, Apply>> options);

  // Vary one nested-spec field (deployment / workload sub-structs).
  template <typename S, typename T>
  SweepSpec& axis(std::string name, S harness::ScenarioConfig::*spec,
                  T S::*field, const std::vector<T>& values) {
    std::vector<std::pair<std::string, Apply>> options;
    options.reserve(values.size());
    for (const T& v : values) {
      options.emplace_back(axis_label(v),
                           [spec, field, v](harness::ScenarioConfig& c) {
                             c.*spec.*field = v;
                           });
    }
    return axis(std::move(name), std::move(options));
  }

  // Vary the power-management policy (labels are the protocol names; the
  // Protocol enum converts implicitly).
  SweepSpec& axis_protocol(const std::vector<harness::ProtocolKey>& protocols);

  // Vary the whole deployment, labelled by kind name (repeats disambiguated
  // as "kind#2", "kind#3", ...).
  SweepSpec& axis_topology(const std::vector<net::DeploymentSpec>& deployments);

  // Vary one whole sub-spec, labelled by its label() (repeats disambiguated
  // as "kind#2", ...): the channel's link-loss model, the mobility model,
  // the parent-selection policy (labels are the policy keys), or the
  // fault-injection spec. Custom labels go through axis(name, options).
  SweepSpec& axis_channel(const std::vector<net::ChannelModelSpec>& models);
  SweepSpec& axis_mobility(const std::vector<net::MobilitySpec>& specs);
  SweepSpec& axis_routing(const std::vector<routing::RoutingSpec>& specs);
  SweepSpec& axis_faults(const std::vector<fault::FaultSpec>& specs);

  // Common workload axes, pre-labelled.
  SweepSpec& axis_rate(const std::vector<double>& rates_hz);
  SweepSpec& axis_queries(const std::vector<int>& queries_per_class);

  const harness::ScenarioConfig& base() const { return base_; }
  std::size_t num_axes() const { return axes_.size(); }
  const std::vector<std::string>& axis_names() const { return axis_names_; }
  // Total grid size: the product of axis option counts (1 with no axes).
  std::size_t num_points() const;

  // Expands the grid, row-major over the axes in declaration order.
  std::vector<SweepPoint> points() const;

 private:
  struct Axis {
    std::vector<std::pair<std::string, Apply>> options;
  };

  static std::string axis_label(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
  }
  static std::string axis_label(int v) { return std::to_string(v); }
  static std::string axis_label(const harness::ProtocolKey& p) { return p.name; }
  static std::string axis_label(net::TopologyKind k) {
    return net::topology_kind_name(k);
  }

  harness::ScenarioConfig base_;
  int runs_ = 5;
  std::vector<Axis> axes_;
  std::vector<std::string> axis_names_;
};

}  // namespace essat::exp
