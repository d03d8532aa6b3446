#include "src/net/link_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/snap/serializer.h"

namespace essat::net {

// ------------------------------------------------------- log-normal shadowing

LogNormalShadowingModel::LogNormalShadowingModel(ShadowingParams params,
                                                 double range_m, util::Rng&& rng)
    : params_{params},
      range_m_{range_m},
      gain_rng_{rng.fork(1)},
      frame_rng_{rng.fork(2)} {}

double LogNormalShadowingModel::link_prr(NodeId src, NodeId dst,
                                         double distance_m) const {
  const std::uint64_t key = link_key(src, dst);
  auto it = links_.find(key);
  if (it == links_.end()) {
    // Static shadowing offset, forked by link key so the draw does not
    // depend on which link happens to carry traffic first.
    util::Rng link_rng = gain_rng_.fork(key);
    it = links_
             .emplace(key, LinkState{link_rng.normal(0.0, params_.shadowing_sigma_db),
                                     -1.0, 0.0})
             .first;
  }
  // The PRR is memoized against the distance it was computed at: on a
  // frozen topology the curve is evaluated once per link (the hot deliver()
  // path then only does this lookup), while under mobility a changed
  // distance — epoch-granular, via the channel's position reads —
  // recomputes it so the PRR tracks geometry.
  LinkState& link = it->second;
  if (link.distance_m != distance_m) {
    // Co-located nodes (distance 0) get an unbounded margin: PRR -> 1.
    const double d = distance_m > 1e-9 ? distance_m : 1e-9;
    const double margin_db = params_.range_margin_db +
                             10.0 * params_.path_loss_exponent *
                                 std::log10(range_m_ / d) +
                             link.gain_db;
    link.distance_m = distance_m;
    link.prr = 1.0 / (1.0 + std::exp(-margin_db / params_.gray_zone_width_db));
  }
  return link.prr;
}

bool LogNormalShadowingModel::deliver(NodeId src, NodeId dst,
                                      double distance_m) {
  return frame_rng_.bernoulli(link_prr(src, dst, distance_m));
}

// ----------------------------------------------------------- gilbert-elliott

GilbertElliottModel::GilbertElliottModel(GilbertElliottParams params,
                                         std::unique_ptr<LinkModel> base,
                                         util::Rng&& rng)
    : params_{params},
      base_{std::move(base)},
      init_rng_{rng.fork(1)},
      frame_rng_{rng.fork(2)} {}

bool& GilbertElliottModel::link_state_(NodeId src, NodeId dst) {
  const std::uint64_t key = link_key(src, dst);
  const auto it = bad_.find(key);
  if (it != bad_.end()) return it->second;
  // Initial state from the chain's stationary distribution, forked by link
  // key for traffic-order independence.
  const double denom = params_.p_good_to_bad + params_.p_bad_to_good;
  const double stationary_bad = denom > 0.0 ? params_.p_good_to_bad / denom : 0.0;
  util::Rng link_rng = init_rng_.fork(key);
  return bad_.emplace(key, link_rng.bernoulli(stationary_bad)).first->second;
}

double GilbertElliottModel::expected_prr(NodeId src, NodeId dst,
                                         double distance_m) const {
  const double denom = params_.p_good_to_bad + params_.p_bad_to_good;
  const double stationary_bad = denom > 0.0 ? params_.p_good_to_bad / denom : 0.0;
  const double own = (1.0 - stationary_bad) * params_.prr_good +
                     stationary_bad * params_.prr_bad;
  return own * (base_ ? base_->expected_prr(src, dst, distance_m) : 1.0);
}

bool GilbertElliottModel::deliver(NodeId src, NodeId dst, double distance_m) {
  bool& bad = link_state_(src, dst);
  const bool burst_pass =
      frame_rng_.bernoulli(bad ? params_.prr_bad : params_.prr_good);
  bad = frame_rng_.bernoulli(bad ? 1.0 - params_.p_bad_to_good
                                 : params_.p_good_to_bad);
  // Evaluate the base unconditionally: the burst chain above already
  // stepped, and stateful bases must see the same per-frame clock.
  const bool base_pass = !base_ || base_->deliver(src, dst, distance_m);
  return base_pass && burst_pass;
}

// ------------------------------------------------------------- PRR thinning

PrrScaledModel::PrrScaledModel(std::unique_ptr<LinkModel> base,
                               double prr_scale, util::Rng&& rng)
    : base_{std::move(base)}, prr_scale_{prr_scale}, rng_{std::move(rng)} {}

bool PrrScaledModel::deliver(NodeId src, NodeId dst, double distance_m) {
  // Draw the thinning coin before the base so stateless and stateful bases
  // alike see one draw per (link, frame) from this layer.
  const bool thin_pass = rng_.bernoulli(prr_scale_);
  return base_->deliver(src, dst, distance_m) && thin_pass;
}

// ----------------------------------------------------------------- the spec

const char* link_model_kind_name(LinkModelKind k) {
  switch (k) {
    case LinkModelKind::kUnitDisc: return "unit-disc";
    case LinkModelKind::kLogNormalShadowing: return "shadowing";
    case LinkModelKind::kGilbertElliott: return "gilbert-elliott";
  }
  throw std::invalid_argument{"link_model_kind_name: unknown kind"};
}

std::unique_ptr<LinkModel> ChannelModelSpec::build(double range_m,
                                                   util::Rng&& rng) const {
  std::unique_ptr<LinkModel> model;
  switch (kind) {
    case LinkModelKind::kUnitDisc:
      model = std::make_unique<UnitDiscModel>();
      break;
    case LinkModelKind::kLogNormalShadowing:
      model = std::make_unique<LogNormalShadowingModel>(shadowing, range_m,
                                                        rng.fork(1));
      break;
    case LinkModelKind::kGilbertElliott: {
      std::unique_ptr<LinkModel> base;
      switch (gilbert_base) {
        case LinkModelKind::kUnitDisc:
          base = nullptr;  // unit-disc base, no per-frame draw needed
          break;
        case LinkModelKind::kLogNormalShadowing:
          base = std::make_unique<LogNormalShadowingModel>(shadowing, range_m,
                                                           rng.fork(1));
          break;
        case LinkModelKind::kGilbertElliott:
          throw std::invalid_argument{
              "ChannelModelSpec: gilbert_base must be unit-disc or shadowing"};
      }
      model = std::make_unique<GilbertElliottModel>(gilbert, std::move(base),
                                                    rng.fork(2));
      break;
    }
  }
  if (prr_scale < 1.0) {
    model = std::make_unique<PrrScaledModel>(std::move(model), prr_scale,
                                             rng.fork(3));
  }
  return model;
}

void LogNormalShadowingModel::save_state(snap::Serializer& out) const {
  out.begin("LMSH");
  // links_ is an unordered_map; serialize in sorted-key order so the bytes
  // are a pure function of the logical state.
  std::vector<std::uint64_t> keys;
  keys.reserve(links_.size());
  for (const auto& [k, unused] : links_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  out.u64(keys.size());
  for (std::uint64_t k : keys) {
    const LinkState& s = links_.at(k);
    out.u64(k);
    out.f64(s.gain_db);
    out.f64(s.distance_m);
    out.f64(s.prr);
  }
  gain_rng_.save_state(out);
  frame_rng_.save_state(out);
  out.end();
}

void GilbertElliottModel::save_state(snap::Serializer& out) const {
  out.begin("LMGE");
  std::vector<std::uint64_t> keys;
  keys.reserve(bad_.size());
  for (const auto& [k, unused] : bad_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  out.u64(keys.size());
  for (std::uint64_t k : keys) {
    out.u64(k);
    out.boolean(bad_.at(k));
  }
  init_rng_.save_state(out);
  frame_rng_.save_state(out);
  if (base_ != nullptr) base_->save_state(out);
  out.end();
}

void PrrScaledModel::save_state(snap::Serializer& out) const {
  out.begin("LMPS");
  rng_.save_state(out);
  base_->save_state(out);
  out.end();
}

std::string ChannelModelSpec::label() const {
  std::string out = link_model_kind_name(kind);
  if (prr_scale < 1.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "@%g", prr_scale);
    out += buf;
  }
  return out;
}

}  // namespace essat::net
