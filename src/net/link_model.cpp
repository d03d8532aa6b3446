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

namespace {

// A link's statics: a pure function of the layer's seed and the link key.
std::uint64_t link_bits(std::uint64_t seed, std::uint64_t key) {
  return util::splitmix64(seed ^ util::splitmix64(key));
}

// One frame's draw on a link. Channel tx ids start at 1, and no tx id
// mixes to zero, so a frame's bits never repeat its link's statics.
std::uint64_t frame_bits(std::uint64_t seed, std::uint64_t key,
                         std::uint64_t frame) {
  return util::splitmix64(link_bits(seed, key) ^ util::splitmix64(frame));
}

// The top 53 bits as a double in [0, 1): `unit(bits) < p` is a
// Bernoulli(p) draw, certain at p = 1 and impossible at p = 0.
double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// A standard normal from one value's bits and their successor
// (Box-Muller); the first uniform is taken as 1 - u so the log sees (0, 1].
double standard_normal(std::uint64_t bits) {
  constexpr double kTwoPi = 6.283185307179586;
  const double radius = std::sqrt(-2.0 * std::log(1.0 - unit(bits)));
  return radius * std::cos(kTwoPi * unit(util::splitmix64(bits)));
}

}  // namespace

// ------------------------------------------------------- log-normal shadowing

LogNormalShadowingModel::LogNormalShadowingModel(ShadowingParams params,
                                                 double range_m,
                                                 std::uint64_t seed)
    : params_{params}, range_m_{range_m}, seed_{seed} {
  if (!(params_.shadowing_sigma_db >= 0.0)) {
    throw std::invalid_argument{
        "LogNormalShadowingModel: shadowing_sigma_db must be >= 0"};
  }
}

double LogNormalShadowingModel::link_prr(NodeId src, NodeId dst,
                                         double distance_m) const {
  const std::uint64_t key = link_key(src, dst);
  LinkCurve* link = links_.find(key);
  if (link == nullptr) {
    link = &links_[key];
    link->gain_db =
        params_.shadowing_sigma_db * standard_normal(link_bits(seed_, key));
  }
  // The PRR is memoized against the distance it was computed at: on a
  // frozen topology the curve is evaluated once per link, while under
  // mobility a changed distance — epoch-granular, via the channel's
  // position reads — recomputes it so the PRR tracks geometry.
  if (link->distance_m != distance_m) {
    // Co-located nodes (distance 0) get an unbounded margin: PRR -> 1.
    const double d = distance_m > 1e-9 ? distance_m : 1e-9;
    const double margin_db = params_.range_margin_db +
                             10.0 * params_.path_loss_exponent *
                                 std::log10(range_m_ / d) +
                             link->gain_db;
    link->distance_m = distance_m;
    link->prr = 1.0 / (1.0 + std::exp(-margin_db / params_.gray_zone_width_db));
  }
  return link->prr;
}

bool LogNormalShadowingModel::deliver(NodeId src, NodeId dst, double distance_m,
                                      std::uint64_t frame) {
  return unit(frame_bits(seed_, link_key(src, dst), frame)) <
         link_prr(src, dst, distance_m);
}

// ----------------------------------------------------------- gilbert-elliott

GilbertElliottModel::GilbertElliottModel(GilbertElliottParams params,
                                         std::unique_ptr<LinkModel> base,
                                         std::uint64_t seed)
    : params_{params}, base_{std::move(base)}, seed_{seed} {}

double GilbertElliottModel::stationary_bad_() const {
  const double denom = params_.p_good_to_bad + params_.p_bad_to_good;
  return denom > 0.0 ? params_.p_good_to_bad / denom : 0.0;
}

bool& GilbertElliottModel::link_state_(std::uint64_t key) {
  if (bool* bad = bad_.find(key)) return *bad;
  // Initial state from the chain's stationary distribution.
  bool& bad = bad_[key];
  bad = unit(link_bits(seed_, key)) < stationary_bad_();
  return bad;
}

double GilbertElliottModel::expected_prr(NodeId src, NodeId dst,
                                         double distance_m) const {
  const double stationary_bad = stationary_bad_();
  const double own = (1.0 - stationary_bad) * params_.prr_good +
                     stationary_bad * params_.prr_bad;
  return own * (base_ ? base_->expected_prr(src, dst, distance_m) : 1.0);
}

bool GilbertElliottModel::deliver(NodeId src, NodeId dst, double distance_m,
                                  std::uint64_t frame) {
  const std::uint64_t key = link_key(src, dst);
  bool& bad = link_state_(key);
  const std::uint64_t bits = frame_bits(seed_, key, frame);
  const bool burst_pass = unit(bits) < (bad ? params_.prr_bad : params_.prr_good);
  // The step draws from the successor of the pass draw's bits.
  bad = unit(util::splitmix64(bits)) <
        (bad ? 1.0 - params_.p_bad_to_good : params_.p_good_to_bad);
  const bool base_pass = !base_ || base_->deliver(src, dst, distance_m, frame);
  return base_pass && burst_pass;
}

// ------------------------------------------------------------- PRR thinning

PrrScaledModel::PrrScaledModel(std::unique_ptr<LinkModel> base,
                               double prr_scale, std::uint64_t seed)
    : base_{std::move(base)}, prr_scale_{prr_scale}, seed_{seed} {}

bool PrrScaledModel::deliver(NodeId src, NodeId dst, double distance_m,
                             std::uint64_t frame) {
  const bool thin_pass =
      unit(frame_bits(seed_, link_key(src, dst), frame)) < prr_scale_;
  // Evaluate the base unconditionally: a stepping base must see every frame.
  return base_->deliver(src, dst, distance_m, frame) && thin_pass;
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
  // One seed per layer, each keying that layer's draws.
  const std::uint64_t shadowing_seed = rng.fork(1).seed();
  std::unique_ptr<LinkModel> model;
  switch (kind) {
    case LinkModelKind::kUnitDisc:
      model = std::make_unique<UnitDiscModel>();
      break;
    case LinkModelKind::kLogNormalShadowing:
      model = std::make_unique<LogNormalShadowingModel>(shadowing, range_m,
                                                        shadowing_seed);
      break;
    case LinkModelKind::kGilbertElliott: {
      std::unique_ptr<LinkModel> base;
      switch (gilbert_base) {
        case LinkModelKind::kUnitDisc:
          base = nullptr;  // unit-disc base, no per-frame draw needed
          break;
        case LinkModelKind::kLogNormalShadowing:
          base = std::make_unique<LogNormalShadowingModel>(shadowing, range_m,
                                                           shadowing_seed);
          break;
        case LinkModelKind::kGilbertElliott:
          throw std::invalid_argument{
              "ChannelModelSpec: gilbert_base must be unit-disc or shadowing"};
      }
      model = std::make_unique<GilbertElliottModel>(gilbert, std::move(base),
                                                    rng.fork(2).seed());
      break;
    }
  }
  if (prr_scale < 1.0) {
    model = std::make_unique<PrrScaledModel>(std::move(model), prr_scale,
                                             rng.fork(3).seed());
  }
  return model;
}

void LogNormalShadowingModel::save_state(snap::Serializer& out) const {
  out.begin("LMSH");
  out.u64(seed_);
  out.end();
}

void GilbertElliottModel::save_state(snap::Serializer& out) const {
  out.begin("LMGE");
  out.u64(seed_);
  // Chain states in sorted-key order, so the bytes are a pure function of
  // the logical state.
  std::vector<std::pair<std::uint64_t, bool>> links;
  links.reserve(bad_.size());
  bad_.for_each([&links](std::uint64_t k, bool bad) { links.emplace_back(k, bad); });
  std::sort(links.begin(), links.end());
  out.u64(links.size());
  for (const auto& [k, bad] : links) {
    out.u64(k);
    out.boolean(bad);
  }
  if (base_ != nullptr) base_->save_state(out);
  out.end();
}

void PrrScaledModel::save_state(snap::Serializer& out) const {
  out.begin("LMPS");
  out.u64(seed_);
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
