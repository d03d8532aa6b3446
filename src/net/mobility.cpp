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

// ----------------------------------------------------------------- the spec

const char* mobility_kind_name(MobilityKind k) {
  switch (k) {
    case MobilityKind::kStatic: return "static";
    case MobilityKind::kRandomWaypoint: return "waypoint";
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
