// Pluggable per-link loss models for the wireless channel.
//
// The seed's Channel reproduces ns-2's two-ray/unit-disc radio: every
// in-range frame is decodable unless it collides. A LinkModel layers
// probabilistic loss on top of that connectivity graph — it decides per
// (directed link, frame) whether the frame is decodable at the receiver.
// Models only *remove* deliveries within the unit disc; links beyond the
// disc stay absent (the topology's neighbor lists are the connectivity
// ground truth).
//
// Shipping models:
//  * UnitDisc        — never drops; the seed's behavior and the default.
//  * LogNormalShadowing — a static per-directed-link packet reception rate
//    from a distance/PRR curve plus a per-link shadowing offset, giving
//    asymmetric and gray-zone links; each frame is a Bernoulli(PRR) draw.
//  * GilbertElliott  — a two-state (good/bad) Markov chain per directed
//    link stepped once per frame, layered multiplicatively on any base
//    model; models time-varying bursty loss.
//
// Determinism: every draw is keyed, in the style of Random123's
// counter-based generators (Salmon et al., SC 2011). Each layer holds one
// seed, taken from the trial's channel stream (ChannelModelSpec::build),
// and a value is util::splitmix64 of (seed, link key) for a link's statics
// (shadowing gain, initial burst state) or of (seed, link key,
// channel_tx_id) for a frame's outcome. No draw depends on which other
// draws were taken, so the channel may skip a sample that cannot matter
// (see Channel::begin_arrival_) without moving any other. Same seed =>
// same losses, any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/net/types.h"
#include "src/util/flat_map.h"
#include "src/util/rng.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::net {

// Packed key of a directed link (src in the high 32 bits, dst in the low):
// the link model's cache and the channel's sparse link counters use it.
inline std::uint64_t link_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
}

class LinkModel {
 public:
  virtual ~LinkModel() = default;
  // True if frame `frame` (its channel_tx_id) is decodable at `dst`. The
  // channel asks only where the answer can matter — `dst` would start a
  // reception, or one is in progress there — unless steps_every_frame()
  // holds, in which case it asks for every in-range receiver of every
  // frame and ignores the answers that cannot matter.
  virtual bool deliver(NodeId src, NodeId dst, double distance_m,
                       std::uint64_t frame) = 0;
  virtual const char* name() const = 0;
  // True when deliver() returns true unconditionally and draws no
  // randomness. The channel caches this to skip the per-arrival distance
  // computation and virtual call entirely — the default unit-disc spec
  // must cost exactly as much as no model at all.
  virtual bool always_delivers() const { return false; }
  // True when per-link state advances on every deliver() call (a burst
  // chain), so the model must see each link's every frame to keep its
  // per-frame clock. A model whose outcomes are pure functions of (link,
  // frame) returns false and may be skipped.
  virtual bool steps_every_frame() const { return false; }
  // Long-run expected delivery probability of the directed link at the
  // given distance — the prior link-quality-aware routing starts from
  // before any traffic has been observed (routing::LinkEstimator). A pure
  // function of the link and the distance. 1 for lossless models.
  virtual double expected_prr(NodeId src, NodeId dst, double distance_m) const {
    (void)src;
    (void)dst;
    (void)distance_m;
    return 1.0;
  }
  // Snapshot hook: each layer's seed and any per-link chain state, in
  // sorted-key order. Stateless models write nothing.
  virtual void save_state(snap::Serializer& out) const { (void)out; }
};

// The seed's lossless in-range channel. Draws no randomness.
class UnitDiscModel : public LinkModel {
 public:
  bool deliver(NodeId, NodeId, double, std::uint64_t) override { return true; }
  const char* name() const override { return "unit-disc"; }
  bool always_delivers() const override { return true; }
};

struct ShadowingParams {
  // Path-loss exponent n: the deterministic margin falls as
  // 10 n log10(d / range).
  double path_loss_exponent = 3.0;
  // Std-dev of the static per-directed-link shadowing offset (dB). Links
  // a->b and b->a draw independently, so links come out asymmetric.
  double shadowing_sigma_db = 4.0;
  // Logistic softness of the margin -> PRR curve (dB per e-fold). Smaller
  // values sharpen the curve toward the unit-disc step.
  double gray_zone_width_db = 3.0;
  // Link margin at exactly the nominal range with zero shadowing; the PRR
  // there is logistic(range_margin_db / gray_zone_width_db) ~= 0.73 with
  // the defaults, rising toward 1 for closer links.
  double range_margin_db = 3.0;
};

// Per-link PRR from a distance/PRR curve:
//   margin(d) = range_margin_db + 10 n log10(range/d) + X_link,
//   PRR = 1 / (1 + exp(-margin / gray_zone_width_db)),
// with X_link ~ N(0, sigma) keyed by (seed, link). The distance term is
// evaluated at every call, so the PRR follows the endpoints when mobility
// moves them; on a frozen topology it is static. Each frame is an
// independent Bernoulli(PRR) draw keyed by (seed, link, frame).
class LogNormalShadowingModel : public LinkModel {
 public:
  // Throws std::invalid_argument for a negative or NaN shadowing sigma.
  LogNormalShadowingModel(ShadowingParams params, double range_m,
                          std::uint64_t seed);

  bool deliver(NodeId src, NodeId dst, double distance_m,
               std::uint64_t frame) override;
  const char* name() const override { return "shadowing"; }
  double expected_prr(NodeId src, NodeId dst, double distance_m) const override {
    return link_prr(src, dst, distance_m);
  }

  // PRR of a directed link at the given distance. A pure function of
  // (seed, link, distance): the link's gain and its PRR at the last-seen
  // distance are memoized, so a frozen topology pays the curve once per
  // link while mobility-updated distances recompute it.
  double link_prr(NodeId src, NodeId dst, double distance_m) const;

  // Writes the seed only: the memo is a function of it.
  void save_state(snap::Serializer& out) const override;

 private:
  struct LinkCurve {
    double gain_db = 0.0;
    double distance_m = -1.0;  // distance the memoized prr was computed at
    double prr = 0.0;
  };

  ShadowingParams params_;
  double range_m_;
  std::uint64_t seed_;
  mutable util::FlatMap<std::uint64_t, LinkCurve> links_;
};

struct GilbertElliottParams {
  // Per-frame state transition probabilities of the good/bad chain.
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 0.25;
  // Frame reception probability in each state.
  double prr_good = 1.0;
  double prr_bad = 0.05;
};

// Two-state bursty loss per directed link, layered on an optional base
// model (nullptr = unit-disc base): a frame is delivered iff the base
// delivers it AND the burst chain's current state does. The chain steps
// once per (link, frame) regardless of the base's outcome, from draws keyed
// by (seed, link, frame); each link's initial state is drawn from the
// chain's stationary distribution, keyed by (seed, link).
class GilbertElliottModel : public LinkModel {
 public:
  GilbertElliottModel(GilbertElliottParams params, std::unique_ptr<LinkModel> base,
                      std::uint64_t seed);

  bool deliver(NodeId src, NodeId dst, double distance_m,
               std::uint64_t frame) override;
  const char* name() const override { return "gilbert-elliott"; }
  bool steps_every_frame() const override { return true; }
  // Stationary-state average reception probability times the base's.
  double expected_prr(NodeId src, NodeId dst, double distance_m) const override;

  const LinkModel* base() const { return base_.get(); }

  void save_state(snap::Serializer& out) const override;

 private:
  double stationary_bad_() const;
  bool& link_state_(std::uint64_t key);

  GilbertElliottParams params_;
  std::unique_ptr<LinkModel> base_;
  std::uint64_t seed_;
  util::FlatMap<std::uint64_t, bool> bad_;  // current state per link
};

// Uniform thinning wrapper: each (link, frame) additionally passes with
// probability `prr_scale`, keyed by (seed, link, frame) and independent of
// everything else. Over a unit-disc base this is the textbook
// independent-uniform-loss channel; over the other models it scales their
// delivery rate down, which is the knob the loss-sensitivity bench sweeps.
class PrrScaledModel : public LinkModel {
 public:
  PrrScaledModel(std::unique_ptr<LinkModel> base, double prr_scale,
                 std::uint64_t seed);

  bool deliver(NodeId src, NodeId dst, double distance_m,
               std::uint64_t frame) override;
  const char* name() const override { return base_->name(); }
  bool steps_every_frame() const override { return base_->steps_every_frame(); }
  double expected_prr(NodeId src, NodeId dst, double distance_m) const override {
    return prr_scale_ * base_->expected_prr(src, dst, distance_m);
  }

  void save_state(snap::Serializer& out) const override;

 private:
  std::unique_ptr<LinkModel> base_;
  double prr_scale_;
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// Declarative channel-model description, sweepable as a unit
// (exp::SweepSpec::axis_channel) and carried on harness::ScenarioConfig.

enum class LinkModelKind {
  kUnitDisc,
  kLogNormalShadowing,
  kGilbertElliott,
};

// Stable lower-case names ("unit-disc", "shadowing", "gilbert-elliott").
// Throws std::invalid_argument on an out-of-range kind.
const char* link_model_kind_name(LinkModelKind k);

struct ChannelModelSpec {
  LinkModelKind kind = LinkModelKind::kUnitDisc;

  // Uniform thinning applied on top of any kind (1.0 = off). The
  // loss-sensitivity bench sweeps this axis across all models.
  double prr_scale = 1.0;

  // kLogNormalShadowing knobs (also the gilbert_base when selected).
  ShadowingParams shadowing;

  // kGilbertElliott knobs, plus the base model the burst layer multiplies
  // into (kUnitDisc or kLogNormalShadowing).
  GilbertElliottParams gilbert;
  LinkModelKind gilbert_base = LinkModelKind::kUnitDisc;

  // Materializes the model for one trial. `range_m` is the deployment's
  // nominal radio range (the shadowing curve's reference distance); `rng`
  // is the trial's channel stream, whose forks seed the model's layers
  // (nothing draws from it).
  std::unique_ptr<LinkModel> build(double range_m, util::Rng&& rng) const;

  // Sink/axis label: the kind name, with non-default thinning appended
  // ("shadowing@0.9").
  std::string label() const;
};

}  // namespace essat::net
