// FaultSpec: the declarative fault-injection axis on ScenarioConfig.
//
// A spec describes *what* goes wrong — node churn (scheduled or
// stochastic crash/restart) — while src/fault/fault_engine.* owns *when
// and how*. Churn strikes only the routing tree's non-root members at
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

  bool enabled() const { return !scheduled.empty() || node_fraction > 0.0; }
};

struct FaultSpec {
  ChurnSpec churn;

  bool enabled() const { return churn.enabled(); }

  // Sweep-axis label (exp::SweepSpec::axis_faults / result sinks).
  std::string label() const {
    if (!enabled()) return "none";
    std::string out;
    if (!churn.scheduled.empty()) {
      out = "churn-sched" + std::to_string(churn.scheduled.size());
    }
    if (churn.node_fraction > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "churn%g", churn.node_fraction);
      if (!out.empty()) out += '+';
      out += buf;
    }
    return out;
  }
};

}  // namespace essat::fault
