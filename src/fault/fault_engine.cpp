#include "src/fault/fault_engine.h"

#include <algorithm>
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

}  // namespace

FaultEngine::FaultEngine(sim::Simulator& sim, FaultEngineParams params,
                         util::Rng&& rng)
    : sim_{sim}, params_{std::move(params)} {
  const std::size_t n = params_.num_nodes;
  down_.assign(n, 0);
  open_outage_.assign(n, -1);

  for (net::NodeId id : params_.members) {
    if (id != params_.root) targets_.push_back(id);
  }
  const auto is_target = [this](net::NodeId id) {
    return std::binary_search(targets_.begin(), targets_.end(), id);
  };

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
    if (!is_target(ev.node)) continue;  // the root, or outside the tree
    planned_.push_back(PlannedFault{ev.node, params_.setup_end + ev.at,
                                    ev.down_for, FaultCause::kScheduled});
  }
  if (spec.churn.node_fraction > 0.0) {
    const util::Time window = params_.measure_end - params_.measure_start;
    for (net::NodeId id : targets_) {
      // One fork per node, keyed by its index, regardless of the outcome,
      // so whether node i crashes never shifts node j's draws.
      util::Rng node_rng =
          rng.fork(kChurnStream).fork(static_cast<std::uint64_t>(id));
      const bool crashes = node_rng.bernoulli(spec.churn.node_fraction);
      const util::Time at =
          params_.measure_start + node_rng.uniform_time(util::Time::zero(), window);
      // A non-positive mean is a permanent crash: down_for stays zero.
      const util::Time down_for =
          spec.churn.mean_downtime_s > 0.0
              ? util::Time::from_seconds(
                    node_rng.exponential(spec.churn.mean_downtime_s))
              : util::Time::zero();
      if (!crashes) continue;
      planned_.push_back(PlannedFault{id, at, down_for, FaultCause::kStochastic});
    }
  }
  std::sort(planned_.begin(), planned_.end(),
            [](const PlannedFault& a, const PlannedFault& b) {
              return a.at != b.at ? a.at < b.at : a.node < b.node;
            });
}

void FaultEngine::start() {
  for (const PlannedFault& f : planned_) {
    sim_.schedule_at(f.at, [this, f] { crash_(f.node, f.cause, f.down_for); });
  }
}

// `cause` only labels the kFaultDown record, so it is unused when
// ESSAT_TRACE compiles out under -DESSAT_TRACING=OFF.
void FaultEngine::crash_(net::NodeId n, [[maybe_unused]] FaultCause cause,
                         util::Time down_for) {
  const auto i = static_cast<std::size_t>(n);
  if (down_[i]) return;  // scheduled + stochastic overlap: first one wins
  down_[i] = 1;
  ++deaths_;
  open_outage_[i] = static_cast<int>(outages_.size());
  outages_.push_back(Outage{sim_.now(), util::Time::zero(), true});
  ESSAT_TRACE(sim_, obs::TraceType::kFaultDown, static_cast<std::int32_t>(n),
              static_cast<std::uint16_t>(cause), 0,
              static_cast<std::uint64_t>(down_for > util::Time::zero()
                                             ? down_for.ns()
                                             : 0));
  if (crash_cb_) crash_cb_(n);
  if (down_for > util::Time::zero()) {
    sim_.schedule_in(down_for, [this, n] { restart_(n); });
  }
}

void FaultEngine::restart_(net::NodeId n) {
  const auto i = static_cast<std::size_t>(n);
  if (!down_[i]) return;
  down_[i] = 0;
  Outage& o = outages_[static_cast<std::size_t>(open_outage_[i])];
  o.up = sim_.now();
  o.open = false;
  open_outage_[i] = -1;
  ESSAT_TRACE(sim_, obs::TraceType::kFaultUp, static_cast<std::int32_t>(n), 0,
              static_cast<std::uint64_t>((o.up - o.down).ns()), 0);
  if (restart_cb_) restart_cb_(n);
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
