// Deterministic fault-injection engine, driven by the declarative FaultSpec
// on harness::ScenarioConfig.
//
// The engine owns the *schedule*: which node goes down when, for how long,
// and why (scheduled churn, stochastic churn, battery depletion). The
// mechanics of dying and reviving — tearing the per-node stack down and
// rebuilding it so the tree repairs — belong to the harness, which installs
// them as callbacks. This split keeps the engine policy-agnostic and the
// harness free of RNG bookkeeping.
//
// Determinism: every random quantity (stochastic crash picks and times,
// downtimes, battery jitter, drift skews/offsets) is pre-drawn in the
// constructor from per-node streams forked off the engine's own master
// stream (harness stream 7), in node order. Nothing is drawn at event time,
// so the schedule is a pure function of (spec, seed, node count) — byte
// identical for any ESSAT_JOBS. The root is never killed (the sink is
// mains-powered in the paper's deployment model).
//
// Battery: per-node budgets in millijoules against the radio's *lifetime*
// energy (never reset by measurement windows, still draining across
// restarts), probed on a fixed poll grid. Battery death is permanent.
//
// Drift: per-node clock skew (ppm) and offset applied at the SafeSleep
// wake-timer boundary via adjust_wake() — the one place the paper's
// schedule-driven protocols turn shared time into a local timer.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/fault/fault_spec.h"
#include "src/net/types.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace essat::sim {
class Simulator;
}  // namespace essat::sim
namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::fault {

// Why a node went down (kFaultDown trace arg16, NodeDown::cause).
enum class FaultCause : std::uint8_t { kScheduled = 0, kStochastic = 1, kBattery = 2 };

struct FaultEngineParams {
  FaultSpec spec;
  std::size_t num_nodes = 0;
  net::NodeId root = net::kNoNode;
  // Fault times in ChurnSpec are offsets from the end of the setup slot;
  // stochastic crash times are drawn uniformly inside the measurement
  // window so every churn rate perturbs the same measured region.
  util::Time setup_end;
  util::Time measure_start;
  util::Time measure_end;
};

class FaultEngine {
 public:
  // Tears down / rebuilds one node's stack; installed by the harness.
  using NodeFn = std::function<void(net::NodeId)>;
  // Reads a node's lifetime radio energy in mJ (battery depletion probe).
  using EnergyProbe = std::function<double(net::NodeId)>;

  // Throws std::invalid_argument when a scheduled churn entry names a node
  // outside [0, num_nodes).
  FaultEngine(sim::Simulator& sim, FaultEngineParams params, util::Rng&& rng);

  void set_crash_callback(NodeFn fn) { crash_cb_ = std::move(fn); }
  void set_restart_callback(NodeFn fn) { restart_cb_ = std::move(fn); }
  void set_energy_probe(EnergyProbe fn) { energy_probe_ = std::move(fn); }

  // Schedules every pre-drawn fault event plus the battery poll grid. Call
  // once, after the callbacks are installed and the harness has scheduled
  // its own setup-boundary events (same-time events run in schedule order,
  // so the workload is registered before a churn event at offset zero
  // fires).
  void start();

  bool is_down(net::NodeId n) const {
    return down_[static_cast<std::size_t>(n)];
  }

  // --- Clock drift --------------------------------------------------------
  bool has_drift() const { return params_.spec.drift.enabled(); }
  // Maps an ideal wake time to the node's drifted local clock:
  //   t + offset_n + t * skew_n(ppm) * 1e-6.
  util::Time adjust_wake(net::NodeId n, util::Time t) const;

  // --- Metrics ------------------------------------------------------------
  std::uint64_t node_deaths() const { return deaths_; }
  // Total node-seconds of downtime overlapping the measurement window;
  // still-open outages are clipped at measure_end.
  double downtime_s() const;
  // True when any node was down at time t (epoch filter for the
  // delivery-during-fault metric).
  bool any_down_at(util::Time t) const;

  // Snapshot hook: the mutable fault state (down flags, outage intervals,
  // death counter). The schedule itself is pre-drawn config, rebuilt by
  // replay; pending events live in the simulator's own snapshot.
  void save_state(snap::Serializer& out) const;

 private:
  struct PlannedFault {
    net::NodeId node = net::kNoNode;
    util::Time at;            // absolute crash time
    util::Time down_for;      // <= 0: permanent
    FaultCause cause = FaultCause::kScheduled;
  };
  struct Outage {
    util::Time down;
    util::Time up;            // < down while still open
    bool open = true;
  };

  void crash_(net::NodeId n, FaultCause cause, util::Time down_for);
  void restart_(net::NodeId n);
  void poll_battery_();

  sim::Simulator& sim_;
  FaultEngineParams params_;
  NodeFn crash_cb_;
  NodeFn restart_cb_;
  EnergyProbe energy_probe_;

  std::vector<PlannedFault> planned_;     // churn, sorted by (at, node)
  std::vector<double> battery_budget_mj_; // empty when battery disabled
  std::vector<double> skew_ppm_;          // empty when drift disabled
  std::vector<util::Time> clock_offset_;

  std::vector<char> down_;
  std::vector<char> battery_dead_;
  std::vector<int> open_outage_;          // index into outages_, -1 if up
  std::vector<Outage> outages_;
  std::uint64_t deaths_ = 0;
};

}  // namespace essat::fault
