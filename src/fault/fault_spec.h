// FaultSpec: the declarative fault-injection axis on ScenarioConfig.
//
// A spec describes *what* goes wrong — node churn (scheduled or
// stochastic crash/restart), battery depletion (finite per-node energy
// budgets), and clock drift (per-node skew/offset at the SafeSleep timer
// boundary) — while src/fault/fault_engine.* owns *when and how*. Churn
// and battery death strike only the routing tree's non-root members at
// t = 0: a node outside that tree is outside the experiment. All
// stochastic draws come from one forked RNG stream keyed per node, so a
// fault schedule is a pure function of (config, seed) and is bit-identical
// for any ESSAT_JOBS value. A default-constructed FaultSpec is disabled
// and run_scenario behaves byte-identically to a build without the fault
// engine compiled in.
//
// This header stays lightweight (it is included by harness/scenario.h and
// serialized by snap/config_codec.cpp).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "src/net/types.h"
#include "src/util/time.h"

namespace essat::fault {

// One deterministic churn event: `node` goes down `at` after setup ends
// and (when down_for > 0) restarts after `down_for`. A non-positive
// down_for is a permanent death. An event naming the root or a node
// outside the t = 0 tree is skipped; a node id outside the deployment is
// rejected (std::invalid_argument).
struct ChurnEvent {
  net::NodeId node = net::kNoNode;
  util::Time at = util::Time::zero();        // offset from end of setup
  util::Time down_for = util::Time::zero();  // <= 0: permanent
};

struct ChurnSpec {
  // Scheduled events, applied verbatim to t = 0 tree members (entries for
  // the root or an outsider are skipped). A permanent entry is how a
  // scenario kills a node.
  std::vector<ChurnEvent> scheduled;
  // Stochastic churn: each non-root member of the t = 0 tree independently
  // crashes once with this probability, at a uniform time inside the
  // measurement window.
  double node_fraction = 0.0;
  // Mean of the exponential downtime for stochastic crashes; <= 0 makes
  // stochastic crashes permanent.
  double mean_downtime_s = 10.0;
  // When false, stochastically crashed nodes never restart.
  bool restart = true;

  bool enabled() const { return !scheduled.empty() || node_fraction > 0.0; }
};

struct BatterySpec {
  // Per-node lifetime energy budget in millijoules for each non-root
  // member of the t = 0 tree; <= 0 disables battery death. Depletion is
  // permanent (there is no recharge).
  double budget_mj = 0.0;
  // Per-node budget jitter: budget * (1 + jitter_frac * U(-1, 1)).
  double jitter_frac = 0.0;
  // How often drained radios are detected. Coarser periods are cheaper;
  // death is attributed to the first check after depletion either way.
  util::Time check_period = util::Time::seconds(1);

  bool enabled() const { return budget_mj > 0.0; }
};

struct DriftSpec {
  // Per-node frequency skew ~ N(0, skew_sigma_ppm) parts-per-million.
  double skew_sigma_ppm = 0.0;
  // Per-node constant offset ~ U(-max_offset_ms, +max_offset_ms).
  double max_offset_ms = 0.0;

  bool enabled() const { return skew_sigma_ppm > 0.0 || max_offset_ms > 0.0; }
};

struct FaultSpec {
  ChurnSpec churn;
  BatterySpec battery;
  DriftSpec drift;

  bool enabled() const {
    return churn.enabled() || battery.enabled() || drift.enabled();
  }

  // Sweep-axis label (exp::SweepSpec::axis_faults / result sinks).
  std::string label() const {
    if (!enabled()) return "none";
    std::string out;
    const auto add = [&out](const std::string& part) {
      if (!out.empty()) out += '+';
      out += part;
    };
    if (churn.enabled()) {
      if (!churn.scheduled.empty()) {
        add("churn-sched" + std::to_string(churn.scheduled.size()));
      }
      if (churn.node_fraction > 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "churn%g", churn.node_fraction);
        add(buf);
      }
    }
    if (battery.enabled()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "batt%gmJ", battery.budget_mj);
      add(buf);
    }
    if (drift.enabled()) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "drift%gppm", drift.skew_sigma_ppm);
      add(buf);
    }
    return out;
  }
};

}  // namespace essat::fault
