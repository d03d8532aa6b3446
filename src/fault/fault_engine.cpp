#include "src/fault/fault_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/obs/tracer.h"
#include "src/sim/simulator.h"
#include "src/snap/serializer.h"

namespace essat::fault {

namespace {

// Per-node sub-streams off the engine's master stream. Keyed by purpose so
// adding a fault class never re-keys the others.
constexpr std::uint64_t kChurnStream = 1;
constexpr std::uint64_t kBatteryStream = 2;
constexpr std::uint64_t kDriftStream = 3;

}  // namespace

FaultEngine::FaultEngine(sim::Simulator& sim, FaultEngineParams params,
                         util::Rng&& rng)
    : sim_{sim}, params_{std::move(params)} {
  const std::size_t n = params_.num_nodes;
  down_.assign(n, 0);
  battery_dead_.assign(n, 0);
  open_outage_.assign(n, -1);

  const FaultSpec& spec = params_.spec;

  // --- Churn: the scheduled list first, then the stochastic draws ---------
  for (std::size_t i = 0; i < spec.churn.scheduled.size(); ++i) {
    const ChurnEvent& ev = spec.churn.scheduled[i];
    if (ev.node < 0 || static_cast<std::size_t>(ev.node) >= n) {
      // A mistyped id must not turn into a silently fault-free run.
      throw std::invalid_argument{"FaultEngine: churn.scheduled[" +
                                  std::to_string(i) + "] names node " +
                                  std::to_string(ev.node) + ", outside [0, " +
                                  std::to_string(n) + ")"};
    }
    if (ev.node == params_.root) continue;  // the sink never dies
    planned_.push_back(PlannedFault{ev.node, params_.setup_end + ev.at,
                                    ev.down_for, FaultCause::kScheduled});
  }
  if (spec.churn.node_fraction > 0.0) {
    const util::Time window = params_.measure_end - params_.measure_start;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<net::NodeId>(i);
      // One fork per node regardless of the outcome, so whether node i
      // crashes never shifts node j's draws.
      util::Rng node_rng = rng.fork(kChurnStream).fork(i);
      const bool crashes = node_rng.bernoulli(spec.churn.node_fraction);
      const util::Time at =
          params_.measure_start + node_rng.uniform_time(util::Time::zero(), window);
      const double downtime_s =
          node_rng.exponential(std::max(spec.churn.mean_downtime_s, 1e-9));
      if (!crashes || id == params_.root) continue;
      const util::Time down_for = spec.churn.restart
                                      ? util::Time::from_seconds(downtime_s)
                                      : util::Time::zero();
      planned_.push_back(PlannedFault{id, at, down_for, FaultCause::kStochastic});
    }
  }
  std::sort(planned_.begin(), planned_.end(),
            [](const PlannedFault& a, const PlannedFault& b) {
              return a.at != b.at ? a.at < b.at : a.node < b.node;
            });

  // --- Battery budgets ----------------------------------------------------
  if (spec.battery.enabled()) {
    battery_budget_mj_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      util::Rng node_rng = rng.fork(kBatteryStream).fork(i);
      const double jitter =
          spec.battery.jitter_frac * node_rng.uniform(-1.0, 1.0);
      battery_budget_mj_[i] = spec.battery.budget_mj * (1.0 + jitter);
    }
  }

  // --- Clock drift --------------------------------------------------------
  if (spec.drift.enabled()) {
    skew_ppm_.resize(n);
    clock_offset_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      util::Rng node_rng = rng.fork(kDriftStream).fork(i);
      skew_ppm_[i] = node_rng.normal(0.0, spec.drift.skew_sigma_ppm);
      clock_offset_[i] = util::Time::from_milliseconds(
          node_rng.uniform(-spec.drift.max_offset_ms, spec.drift.max_offset_ms));
    }
  }
}

void FaultEngine::start() {
  for (const PlannedFault& f : planned_) {
    sim_.schedule_at(f.at, [this, f] { crash_(f.node, f.cause, f.down_for); });
  }
  if (params_.spec.battery.enabled() && energy_probe_) {
    sim_.schedule_at(params_.setup_end + params_.spec.battery.check_period,
                     [this] { poll_battery_(); });
  }
}

util::Time FaultEngine::adjust_wake(net::NodeId n, util::Time t) const {
  const auto i = static_cast<std::size_t>(n);
  if (i >= skew_ppm_.size()) return t;
  const double skewed_s = t.to_seconds() * skew_ppm_[i] * 1e-6;
  return t + clock_offset_[i] + util::Time::from_seconds(skewed_s);
}

void FaultEngine::crash_(net::NodeId n, FaultCause cause, util::Time down_for) {
  const auto i = static_cast<std::size_t>(n);
  if (down_[i]) return;  // scheduled + stochastic overlap: first one wins
  down_[i] = 1;
  if (cause == FaultCause::kBattery) battery_dead_[i] = 1;
  ++deaths_;
  open_outage_[i] = static_cast<int>(outages_.size());
  outages_.push_back(Outage{sim_.now(), util::Time::zero(), true});
  ESSAT_TRACE(sim_, obs::TraceType::kFaultDown, static_cast<std::int32_t>(n),
              static_cast<std::uint16_t>(cause), 0,
              static_cast<std::uint64_t>(down_for > util::Time::zero()
                                             ? down_for.ns()
                                             : 0));
  if (crash_cb_) crash_cb_(n);
  const bool permanent =
      cause == FaultCause::kBattery || down_for <= util::Time::zero();
  if (!permanent) {
    sim_.schedule_in(down_for, [this, n] { restart_(n); });
  }
}

void FaultEngine::restart_(net::NodeId n) {
  const auto i = static_cast<std::size_t>(n);
  if (!down_[i] || battery_dead_[i]) return;  // battery death outlasts churn
  down_[i] = 0;
  Outage& o = outages_[static_cast<std::size_t>(open_outage_[i])];
  o.up = sim_.now();
  o.open = false;
  open_outage_[i] = -1;
  ESSAT_TRACE(sim_, obs::TraceType::kFaultUp, static_cast<std::int32_t>(n), 0,
              static_cast<std::uint64_t>((o.up - o.down).ns()), 0);
  if (restart_cb_) restart_cb_(n);
}

void FaultEngine::poll_battery_() {
  for (std::size_t i = 0; i < battery_budget_mj_.size(); ++i) {
    const auto id = static_cast<net::NodeId>(i);
    if (down_[i] || battery_dead_[i] || id == params_.root) continue;
    if (energy_probe_(id) >= battery_budget_mj_[i]) {
      crash_(id, FaultCause::kBattery, util::Time::zero());
    }
  }
  sim_.schedule_in(params_.spec.battery.check_period, [this] { poll_battery_(); });
}

double FaultEngine::downtime_s() const {
  double total = 0.0;
  for (const Outage& o : outages_) {
    const util::Time begin = std::max(o.down, params_.measure_start);
    const util::Time end =
        std::min(o.open ? params_.measure_end : o.up, params_.measure_end);
    if (end > begin) total += (end - begin).to_seconds();
  }
  return total;
}

bool FaultEngine::any_down_at(util::Time t) const {
  for (const Outage& o : outages_) {
    if (t >= o.down && (o.open || t < o.up)) return true;
  }
  return false;
}

void FaultEngine::save_state(snap::Serializer& out) const {
  out.begin("FENG");
  out.u64(deaths_);
  out.u64(down_.size());
  for (std::size_t i = 0; i < down_.size(); ++i) {
    out.boolean(down_[i] != 0);
    out.boolean(battery_dead_[i] != 0);
    out.i64(open_outage_[i]);
  }
  out.u64(outages_.size());
  for (const Outage& o : outages_) {
    out.i64(o.down.ns());
    out.i64(o.up.ns());
    out.boolean(o.open);
  }
  out.end();
}

}  // namespace essat::fault
