// Pluggable node-position sources for time-varying topologies.
//
// The seed's deployment is frozen for the whole run (the paper's setup). A
// MobilityModel turns the Topology into a position-source-backed view: the
// model answers positions_at(t), the topology re-samples it on an epoch
// tick (Topology::advance_to) and rebuilds its neighbor sets, and every
// consumer — channel propagation, tree construction, repair — keeps reading
// through the unchanged accessors. Link PRRs then vary over time through
// geometry alone, which is exactly the stress the tree-repair and
// link-quality-aware routing layers exist for.
//
// Shipping models:
//  * StaticMobility       — returns the initial placement forever; installing
//    it (and ticking) is behaviorally identical to no model at all.
//  * RandomWaypointMobility — the classic random-waypoint process per node:
//    pick a uniform target in the deployment rectangle, walk there at a
//    uniform speed, pause, repeat. Per-node streams are forked by node id,
//    so trajectories do not depend on query order.
//  * WaypointTraceMobility — deterministic playback of explicit per-node
//    (time, position) checkpoints with linear interpolation; nodes without
//    a trace stay at their initial position.
//
// Determinism: a model instance is built per trial from the trial's seed
// (MobilitySpec::build takes a util::Rng by value), so sweeps are
// bit-identical for any ESSAT_JOBS value.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/position.h"
#include "src/net/types.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::net {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  // Writes every node's position at time `t` into `out` (already sized to
  // the node count). Called with non-decreasing `t`; models may advance
  // internal state monotonically.
  virtual void positions_at(util::Time t, std::vector<Position>& out) = 0;
  virtual const char* name() const = 0;
  // Snapshot hook: monotonic per-node state (legs, RNG streams). Models
  // whose output is a pure function of t write nothing.
  virtual void save_state(snap::Serializer& out) const { (void)out; }
};

// The frozen deployment as a model: positions_at returns the initial
// placement at every t. Exists so the mobility plumbing itself can be
// equivalence-tested against the no-model path.
class StaticMobility : public MobilityModel {
 public:
  explicit StaticMobility(std::vector<Position> positions)
      : positions_{std::move(positions)} {}

  void positions_at(util::Time, std::vector<Position>& out) override {
    out = positions_;
  }
  const char* name() const override { return "static"; }

 private:
  std::vector<Position> positions_;
};

struct RandomWaypointParams {
  // Walking-speed band of the classic model; each leg draws uniformly.
  double speed_min_mps = 0.5;
  double speed_max_mps = 1.5;
  // Dwell time at each waypoint before the next leg starts.
  double pause_s = 10.0;
};

// Random waypoint over the deployment rectangle [0, width] x [0, height].
// Node i's waypoints, speeds and pauses come from a stream forked by i, so
// adding consumers (or reordering queries) never perturbs a trajectory.
class RandomWaypointMobility : public MobilityModel {
 public:
  RandomWaypointMobility(std::vector<Position> initial, double width_m,
                         double height_m, RandomWaypointParams params,
                         util::Rng&& rng);

  void positions_at(util::Time t, std::vector<Position>& out) override;
  const char* name() const override { return "waypoint"; }
  void save_state(snap::Serializer& out) const override;

 private:
  struct Leg {
    Position from;
    Position to;
    util::Time depart;       // start of the walk
    util::Time arrive;       // reached `to`
    util::Time pause_until;  // next leg departs here
  };

  void advance_node_(std::size_t i, util::Time t);

  double width_m_;
  double height_m_;
  RandomWaypointParams params_;
  std::vector<util::Rng> node_rng_;
  std::vector<Leg> legs_;
};

// One node's scripted trajectory: (time, position) checkpoints in strictly
// increasing time order. Between checkpoints the node moves linearly; after
// the last it holds position; before the first it interpolates from its
// initial placement at t = 0.
struct WaypointTrace {
  NodeId node = kNoNode;
  std::vector<std::pair<util::Time, Position>> points;
};

class WaypointTraceMobility : public MobilityModel {
 public:
  WaypointTraceMobility(std::vector<Position> initial,
                        std::vector<WaypointTrace> traces);

  void positions_at(util::Time t, std::vector<Position>& out) override;
  const char* name() const override { return "trace"; }

 private:
  std::vector<Position> initial_;
  // Indexed by node; empty vector = node never moves.
  std::vector<std::vector<std::pair<util::Time, Position>>> points_;
};

// ---------------------------------------------------------------------------
// Declarative mobility description, carried on harness::ScenarioConfig and
// sweepable as a unit (exp::SweepSpec::axis_mobility).

enum class MobilityKind { kStatic, kRandomWaypoint, kWaypoints };

// Stable lower-case names ("static", "waypoint", "trace"). Throws
// std::invalid_argument on an out-of-range kind.
const char* mobility_kind_name(MobilityKind k);

struct MobilitySpec {
  MobilityKind kind = MobilityKind::kStatic;

  // kRandomWaypoint knobs.
  RandomWaypointParams waypoint;

  // Neighbor-set recompute period: Topology::advance_to re-samples the
  // model and rebuilds neighbor lists once per epoch.
  double epoch_s = 5.0;

  // kWaypoints trajectories.
  std::vector<WaypointTrace> traces;

  // Materializes the model for one trial. `initial` is the deployed
  // placement, (width_m, height_m) the deployment rectangle (mobility
  // bounds), `rng` the trial's mobility stream, taken by value so the model
  // owns it. Returns nullptr for kStatic: the topology then stays frozen
  // and the harness schedules no epoch ticks — the exact pre-mobility code
  // path at zero cost.
  std::unique_ptr<MobilityModel> build(std::vector<Position> initial,
                                       double width_m, double height_m,
                                       util::Rng&& rng) const;

  util::Time epoch() const { return util::Time::from_seconds(epoch_s); }

  // Sink/axis label: "static", "waypoint@1.5mps" (top speed), "trace".
  std::string label() const;
};

}  // namespace essat::net
