#include "src/exp/sweep.h"

namespace essat::exp {
namespace {

// Disambiguates a label against the options already collected ("kind",
// "kind#2", "kind#3", ...) so sink rows stay uniquely keyed.
std::string dedup_label(
    const std::vector<std::pair<std::string, SweepSpec::Apply>>& options,
    std::string label) {
  int dup = 1;
  for (const auto& [existing, _] : options) {
    if (existing == label || existing.rfind(label + "#", 0) == 0) ++dup;
  }
  if (dup > 1) label += "#" + std::to_string(dup);
  return label;
}

// Shared body of the spec axes (channel / mobility / routing / faults): each
// option copies one whole sub-spec into its ScenarioConfig member, labelled
// by the spec's own label() (deduped).
template <typename Spec>
std::vector<std::pair<std::string, SweepSpec::Apply>> spec_options(
    const std::vector<Spec>& specs, Spec harness::ScenarioConfig::*member) {
  std::vector<std::pair<std::string, SweepSpec::Apply>> options;
  options.reserve(specs.size());
  for (const Spec& s : specs) {
    options.emplace_back(dedup_label(options, s.label()),
                         [member, s](harness::ScenarioConfig& c) {
                           c.*member = s;
                         });
  }
  return options;
}

}  // namespace

SweepSpec& SweepSpec::axis(std::string name,
                           std::vector<std::pair<std::string, Apply>> options) {
  axis_names_.push_back(std::move(name));
  axes_.push_back(Axis{std::move(options)});
  return *this;
}

SweepSpec& SweepSpec::axis_protocol(
    const std::vector<harness::ProtocolKey>& protocols) {
  std::vector<std::pair<std::string, Apply>> options;
  options.reserve(protocols.size());
  for (const harness::ProtocolKey& p : protocols) {
    options.emplace_back(axis_label(p), [p](harness::ScenarioConfig& c) {
      c.protocol = p;
    });
  }
  return axis("protocol", std::move(options));
}

SweepSpec& SweepSpec::axis_topology(
    const std::vector<net::DeploymentSpec>& deployments) {
  std::vector<std::pair<std::string, Apply>> options;
  options.reserve(deployments.size());
  for (const net::DeploymentSpec& d : deployments) {
    options.emplace_back(dedup_label(options, axis_label(d.kind)),
                         [d](harness::ScenarioConfig& c) { c.deployment = d; });
  }
  return axis("topology", std::move(options));
}

SweepSpec& SweepSpec::axis_channel(
    const std::vector<net::ChannelModelSpec>& models) {
  return axis("channel",
              spec_options(models, &harness::ScenarioConfig::channel_model));
}

SweepSpec& SweepSpec::axis_mobility(const std::vector<net::MobilitySpec>& specs) {
  return axis("mobility", spec_options(specs, &harness::ScenarioConfig::mobility));
}

SweepSpec& SweepSpec::axis_routing(const std::vector<routing::RoutingSpec>& specs) {
  return axis("routing", spec_options(specs, &harness::ScenarioConfig::routing));
}

SweepSpec& SweepSpec::axis_faults(const std::vector<fault::FaultSpec>& specs) {
  return axis("faults", spec_options(specs, &harness::ScenarioConfig::faults));
}

SweepSpec& SweepSpec::axis_rate(const std::vector<double>& rates_hz) {
  return axis("rate (Hz)", &harness::ScenarioConfig::workload,
              &harness::WorkloadSpec::base_rate_hz, rates_hz);
}

SweepSpec& SweepSpec::axis_queries(const std::vector<int>& queries_per_class) {
  return axis("queries/class", &harness::ScenarioConfig::workload,
              &harness::WorkloadSpec::queries_per_class, queries_per_class);
}

std::size_t SweepSpec::num_points() const {
  std::size_t n = 1;
  for (const Axis& a : axes_) n *= a.options.size();
  return n;
}

std::vector<SweepPoint> SweepSpec::points() const {
  std::vector<SweepPoint> out;
  const std::size_t total = num_points();
  out.reserve(total);
  // Row-major expansion: odometer over the per-axis option indices, first
  // axis slowest. An empty axis list yields the single base point.
  std::vector<std::size_t> idx(axes_.size(), 0);
  for (std::size_t flat = 0; flat < total; ++flat) {
    SweepPoint p;
    p.index = flat;
    p.config = base_;
    p.labels.reserve(axes_.size());
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const auto& option = axes_[a].options[idx[a]];
      p.labels.push_back(option.first);
      option.second(p.config);
    }
    out.push_back(std::move(p));
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++idx[a] < axes_[a].options.size()) break;
      idx[a] = 0;
    }
  }
  return out;
}

}  // namespace essat::exp
