#include "src/net/mobility.h"

#include <algorithm>
#include <utility>
#include <cstdio>
#include <stdexcept>

#include "src/snap/serializer.h"

namespace essat::net {

// ----------------------------------------------------------- random waypoint

RandomWaypointMobility::RandomWaypointMobility(std::vector<Position> initial,
                                               double width_m, double height_m,
                                               RandomWaypointParams params,
                                               util::Rng&& rng)
    : width_m_{width_m}, height_m_{height_m}, params_{params} {
  if (width_m_ < 0.0 || height_m_ < 0.0) {
    throw std::invalid_argument{"RandomWaypointMobility: negative bounds"};
  }
  // Degenerate speeds would stall a leg forever; floor them.
  params_.speed_min_mps = std::max(params_.speed_min_mps, 0.01);
  params_.speed_max_mps = std::max(params_.speed_max_mps, params_.speed_min_mps);
  if (params_.pause_s < 0.0) params_.pause_s = 0.0;

  node_rng_.reserve(initial.size());
  legs_.reserve(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    node_rng_.push_back(rng.fork(i));
    // A zero-length "leg" parked at the initial position whose pause ends at
    // t = 0: the first real leg is drawn on the first query.
    legs_.push_back(Leg{initial[i], initial[i], util::Time::zero(),
                        util::Time::zero(), util::Time::zero()});
  }
}

void RandomWaypointMobility::advance_node_(std::size_t i, util::Time t) {
  Leg& leg = legs_[i];
  util::Rng& rng = node_rng_[i];
  while (leg.pause_until <= t) {
    const Position from = leg.to;
    const Position to{rng.uniform(0.0, width_m_ > 0.0 ? width_m_ : 1e-12),
                      rng.uniform(0.0, height_m_ > 0.0 ? height_m_ : 1e-12)};
    const double speed = rng.uniform(params_.speed_min_mps, params_.speed_max_mps);
    const util::Time depart = leg.pause_until;
    const util::Time travel = util::Time::from_seconds(distance(from, to) / speed);
    leg.from = from;
    leg.to = to;
    leg.depart = depart;
    leg.arrive = depart + travel;
    leg.pause_until = leg.arrive + util::Time::from_seconds(params_.pause_s);
  }
}

void RandomWaypointMobility::positions_at(util::Time t,
                                          std::vector<Position>& out) {
  out.resize(legs_.size());
  for (std::size_t i = 0; i < legs_.size(); ++i) {
    advance_node_(i, t);
    const Leg& leg = legs_[i];
    if (t <= leg.depart) {
      out[i] = leg.from;
    } else if (t >= leg.arrive) {
      out[i] = leg.to;
    } else {
      const double f = (t - leg.depart) / (leg.arrive - leg.depart);
      out[i] = Position{leg.from.x + (leg.to.x - leg.from.x) * f,
                        leg.from.y + (leg.to.y - leg.from.y) * f};
    }
  }
}

// ------------------------------------------------------------ trace playback

WaypointTraceMobility::WaypointTraceMobility(std::vector<Position> initial,
                                             std::vector<WaypointTrace> traces)
    : initial_{std::move(initial)}, points_(initial_.size()) {
  for (WaypointTrace& tr : traces) {
    if (tr.node < 0 || static_cast<std::size_t>(tr.node) >= initial_.size()) {
      throw std::invalid_argument{"WaypointTraceMobility: trace for unknown node"};
    }
    for (std::size_t k = 1; k < tr.points.size(); ++k) {
      if (tr.points[k].first <= tr.points[k - 1].first) {
        throw std::invalid_argument{
            "WaypointTraceMobility: checkpoints must be strictly increasing"};
      }
    }
    points_[static_cast<std::size_t>(tr.node)] = std::move(tr.points);
  }
}

void WaypointTraceMobility::positions_at(util::Time t,
                                         std::vector<Position>& out) {
  out = initial_;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const auto& pts = points_[i];
    if (pts.empty()) continue;
    if (t >= pts.back().first) {
      out[i] = pts.back().second;
      continue;
    }
    // First checkpoint past t; the segment starts at the previous one (or
    // at the initial placement at t = 0).
    const auto it = std::upper_bound(
        pts.begin(), pts.end(), t,
        [](util::Time v, const auto& p) { return v < p.first; });
    const Position from = it == pts.begin() ? initial_[i] : (it - 1)->second;
    const util::Time t0 = it == pts.begin() ? util::Time::zero() : (it - 1)->first;
    if (t <= t0 || it->first <= t0) {
      out[i] = from;
      continue;
    }
    const double f = (t - t0) / (it->first - t0);
    out[i] = Position{from.x + (it->second.x - from.x) * f,
                      from.y + (it->second.y - from.y) * f};
  }
}

// ----------------------------------------------------------------- the spec

const char* mobility_kind_name(MobilityKind k) {
  switch (k) {
    case MobilityKind::kStatic: return "static";
    case MobilityKind::kRandomWaypoint: return "waypoint";
    case MobilityKind::kWaypoints: return "trace";
  }
  throw std::invalid_argument{"mobility_kind_name: unknown kind"};
}

std::unique_ptr<MobilityModel> MobilitySpec::build(std::vector<Position> initial,
                                                   double width_m,
                                                   double height_m,
                                                   util::Rng&& rng) const {
  switch (kind) {
    case MobilityKind::kStatic:
      return nullptr;
    case MobilityKind::kRandomWaypoint:
      return std::make_unique<RandomWaypointMobility>(
          std::move(initial), width_m, height_m, waypoint, rng.fork(1));
    case MobilityKind::kWaypoints:
      return std::make_unique<WaypointTraceMobility>(std::move(initial), traces);
  }
  throw std::invalid_argument{"MobilitySpec::build: unknown MobilityKind"};
}

void RandomWaypointMobility::save_state(snap::Serializer& out) const {
  out.begin("MOBW");
  out.f64(width_m_);
  out.f64(height_m_);
  out.u64(legs_.size());
  for (std::size_t i = 0; i < legs_.size(); ++i) {
    const Leg& leg = legs_[i];
    out.f64(leg.from.x);
    out.f64(leg.from.y);
    out.f64(leg.to.x);
    out.f64(leg.to.y);
    out.time(leg.depart);
    out.time(leg.arrive);
    out.time(leg.pause_until);
    node_rng_[i].save_state(out);
  }
  out.end();
}

std::string MobilitySpec::label() const {
  if (kind == MobilityKind::kRandomWaypoint) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "waypoint@%gmps", waypoint.speed_max_mps);
    return buf;
  }
  return mobility_kind_name(kind);
}

}  // namespace essat::net
