#include "workloads.h"

#include <cmath>
#include <stdexcept>

namespace essat::perfbench {

namespace {

// The paper's §5 setup: 80 nodes uniform in 500 x 500 m^2, 125 m unit disc,
// static nodes, no faults, tree over nodes within 300 m of the root.
harness::ScenarioConfig paper_setup(std::uint64_t base_seed) {
  harness::ScenarioConfig c;
  c.deployment.num_nodes = 80;
  c.deployment.area_m = 500.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 300.0;
  c.measure_duration = util::Time::seconds(200);
  c.seed = base_seed;
  return c;
}

// Side of the square holding `n` nodes at the paper's density.
double paper_density_side_m(int n) { return 500.0 * std::sqrt(n / 80.0); }

const std::vector<harness::ProtocolKey> kPaperProtocols{
    harness::Protocol::kDtsSs, harness::Protocol::kStsSs,
    harness::Protocol::kNtsSs, harness::Protocol::kSync,
    harness::Protocol::kPsm,   harness::Protocol::kSpan};

// A grid whose leading axis is the seed: every point at seed base, then
// every point at base + 1, ..., one run per point. The trial list is then
// `seeds` rounds of the whole grid, with the seeds SweepSpec's repetitions
// would assign, and a point's trials are spread over the pass instead of
// running side by side (on paper-static, four SYNC 4 Hz trials at once
// hold about 80 MiB).
exp::SweepSpec seed_rounds(const harness::ScenarioConfig& c, int seeds) {
  std::vector<std::pair<std::string, exp::SweepSpec::Apply>> options;
  for (int r = 0; r < seeds; ++r) {
    options.emplace_back("+" + std::to_string(r), [r](harness::ScenarioConfig& x) {
      x.seed += static_cast<std::uint64_t>(r);
    });
  }
  exp::SweepSpec spec(c);
  spec.runs(1).axis("seed", std::move(options));
  return spec;
}

// Every paper figure runs this setup; the in-loop layers (event core,
// channel, MAC, radio, shapers, query agent) do nearly all the work. The
// traced subset keeps the 1 Hz points: the 4 Hz trials need trace rings of
// ~200 MiB each.
Workload paper_static(std::uint64_t base_seed) {
  const harness::ScenarioConfig c = paper_setup(base_seed);
  constexpr int kSeeds = 12;
  exp::SweepSpec spec = seed_rounds(c, kSeeds);
  spec.axis_protocol(kPaperProtocols).axis_rate({1.0, 2.0, 4.0});
  exp::SweepSpec traced(c);
  traced.runs(1).axis_protocol(kPaperProtocols).axis_rate({1.0});
  return Workload{"paper-static", std::move(spec), kSeeds, std::move(traced)};
}

// Mobile nodes over a lossy channel with churn: neighbor rebuilds, the link
// estimator, repair retries and the fault engine all run. SYNC is left out
// because its duty machines do not survive a stack rebuild.
Workload dynamic(std::uint64_t base_seed) {
  harness::ScenarioConfig c = paper_setup(base_seed);
  c.deployment.num_nodes = 120;
  c.deployment.area_m = paper_density_side_m(120);
  c.measure_duration = util::Time::seconds(60);
  c.mobility.kind = net::MobilityKind::kRandomWaypoint;
  c.mobility.waypoint.speed_min_mps = 0.5;
  c.mobility.waypoint.speed_max_mps = 2.0;
  c.mobility.waypoint.pause_s = 20.0;
  c.mobility.epoch_s = 0.1;
  c.channel_model.kind = net::LinkModelKind::kLogNormalShadowing;
  c.routing.policy = "etx";
  c.enable_maintenance = true;
  c.faults.churn.node_fraction = 0.10;
  c.faults.churn.mean_downtime_s = 10.0;
  const std::vector<harness::ProtocolKey> protocols{
      harness::Protocol::kDtsSs, harness::Protocol::kNtsSs,
      harness::Protocol::kPsm};
  constexpr int kSeeds = 36;
  exp::SweepSpec spec = seed_rounds(c, kSeeds);
  spec.axis_protocol(protocols);
  exp::SweepSpec traced(c);
  traced.runs(2).axis_protocol(protocols);
  return Workload{"dynamic", std::move(spec), kSeeds, std::move(traced)};
}

// 20 000 nodes at the paper's density: construction dominates, per-node
// state sits in the sparse storage used above 1024 nodes, and traffic stays
// inside the 300 m tree cap. A 5 s window would measure no epoch.
Workload city(std::uint64_t base_seed) {
  harness::ScenarioConfig c = paper_setup(base_seed);
  c.protocol = harness::Protocol::kDtsSs;
  c.deployment.num_nodes = 20000;
  c.deployment.area_m = paper_density_side_m(20000);
  c.measure_duration = util::Time::seconds(20);
  constexpr int kSeeds = 68;
  exp::SweepSpec spec = seed_rounds(c, kSeeds);
  spec.axis_rate({1.0, 2.0, 4.0});
  exp::SweepSpec traced(c);
  traced.runs(1).axis_rate({1.0, 2.0, 4.0});
  return Workload{"city", std::move(spec), kSeeds, std::move(traced)};
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t base_seed) {
  if (name == "paper-static") return paper_static(base_seed);
  if (name == "dynamic") return dynamic(base_seed);
  if (name == "city") return city(base_seed);
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

std::vector<harness::ScenarioConfig> expand_trials(const exp::SweepSpec& spec) {
  std::vector<harness::ScenarioConfig> trials;
  for (const exp::SweepPoint& p : spec.points()) {
    for (int rep = 0; rep < spec.runs_per_point(); ++rep) {
      harness::ScenarioConfig c = p.config;
      c.seed += static_cast<std::uint64_t>(rep);
      trials.push_back(std::move(c));
    }
  }
  return trials;
}

namespace {

// Whole decimal number in [0, max]; anything else throws.
std::uint64_t parse_count(const std::string& flag, const std::string& text,
                          std::uint64_t max) {
  const bool digits = !text.empty() && text.size() <= 19 &&
                      text.find_first_not_of("0123456789") == std::string::npos;
  const std::uint64_t v = digits ? std::stoull(text) : max + 1;
  if (v > max) throw std::invalid_argument{flag + ": bad value '" + text + "'"};
  return v;
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument{flag + ": missing value"};
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_count(flag, value, ~std::uint64_t{0} / 2);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_count(flag, value, 3600));
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(parse_count(flag, value, 1));
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  if (o.workload.empty()) throw std::invalid_argument{"--workload is required"};
  return o;
}

}  // namespace essat::perfbench
