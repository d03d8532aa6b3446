#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/channel.h"
#include "src/net/link_model.h"
#include "src/sim/simulator.h"

namespace essat::net {
namespace {

using util::Time;

// Three nodes on a line: 0 -- 1 -- 2, with 0 and 2 hidden from each other.
Topology line_topo() { return Topology::line(3, 100.0, 125.0); }

struct Listener : ChannelListener {
  std::vector<std::pair<Packet, bool>> received;

  void on_rx_complete(const Packet& p, bool ok) override {
    received.emplace_back(p, ok);
  }
  void on_channel_activity() override {}

  void listen_on(Channel& ch, NodeId node) {
    ch.attach(node, this);
    ch.set_listening(node, true);
  }
};

Packet test_packet(NodeId src, NodeId dst) {
  DataHeader h;
  h.query = 1;
  return make_data_packet(src, dst, h);
}

// Sends `frames` non-overlapping frames 0 -> 1 and runs to completion.
void send_frames(sim::Simulator& sim, Channel& ch, int frames) {
  for (int i = 0; i < frames; ++i) {
    sim.schedule_at(Time::milliseconds(2 * i), [&ch] {
      ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
    });
  }
  sim.run();
}

// ------------------------------------------------------------- unit disc

TEST(LinkModel, UnitDiscMatchesNoModelExactly) {
  const Topology topo = line_topo();
  std::uint64_t delivered[2];
  for (int pass = 0; pass < 2; ++pass) {
    sim::Simulator sim;
    Channel ch{sim, topo};
    if (pass == 1) ch.set_link_model(std::make_unique<UnitDiscModel>());
    Listener l1;
    l1.listen_on(ch, 1);
    send_frames(sim, ch, 50);
    delivered[pass] = ch.delivered();
    EXPECT_EQ(ch.dropped_by_model(), 0u);
    EXPECT_EQ(l1.received.size(), 50u);
  }
  EXPECT_EQ(delivered[0], delivered[1]);
}

// --------------------------------------------------------------- shadowing

TEST(LinkModel, ShadowingPrrFallsWithDistance) {
  ShadowingParams p;
  p.shadowing_sigma_db = 0.0;  // isolate the deterministic curve
  LogNormalShadowingModel m{p, 125.0, util::Rng{42}};
  const double near = m.link_prr(0, 1, 40.0);
  const double mid = m.link_prr(0, 2, 90.0);
  const double edge = m.link_prr(0, 3, 124.0);
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, edge);
  EXPECT_GT(near, 0.95);
  EXPECT_GT(edge, 0.5);  // margin at range stays positive by default
  EXPECT_LT(edge, 0.9);
}

TEST(LinkModel, ShadowingLinksAreAsymmetric) {
  ShadowingParams p;  // sigma 4 dB: per-direction gains draw independently
  LogNormalShadowingModel m{p, 125.0, util::Rng{42}};
  EXPECT_NE(m.link_prr(0, 1, 100.0), m.link_prr(1, 0, 100.0));
  // Deterministic: repeated queries at the same distance return the
  // identical value.
  EXPECT_EQ(m.link_prr(0, 1, 100.0), m.link_prr(0, 1, 100.0));
}

TEST(LinkModel, ShadowingPrrTracksDistanceOfTheSameLink) {
  // Mobility regression: the per-link gain is cached, the distance term is
  // not — when the endpoints move, the same link's PRR must move too.
  ShadowingParams p;
  LogNormalShadowingModel m{p, 125.0, util::Rng{42}};
  const double near = m.link_prr(0, 1, 30.0);
  const double far = m.link_prr(0, 1, 124.0);
  EXPECT_GT(near, far);
  // And back: returning to the original distance reproduces the original
  // PRR exactly (same cached gain, same curve).
  EXPECT_EQ(m.link_prr(0, 1, 30.0), near);
}

TEST(LinkModel, ShadowingPerLinkGainIndependentOfQueryOrder) {
  ShadowingParams p;
  LogNormalShadowingModel a{p, 125.0, util::Rng{42}};
  LogNormalShadowingModel b{p, 125.0, util::Rng{42}};
  const double a01 = a.link_prr(0, 1, 100.0);
  (void)b.link_prr(5, 7, 60.0);  // touch another link first
  EXPECT_EQ(b.link_prr(0, 1, 100.0), a01);
}

TEST(LinkModel, ShadowingDropsAndDeliversOnGrayZoneLink) {
  const Topology topo = line_topo();
  sim::Simulator sim;
  Channel ch{sim, topo};
  ShadowingParams p;
  p.shadowing_sigma_db = 0.0;  // PRR(100 m) ~= 0.88: both outcomes certain
  ch.set_link_model(
      std::make_unique<LogNormalShadowingModel>(p, topo.range(), util::Rng{7}));
  Listener l1;
  l1.listen_on(ch, 1);
  send_frames(sim, ch, 400);

  EXPECT_GT(ch.dropped_by_model(), 0u);
  EXPECT_GT(ch.delivered(), 0u);
  EXPECT_EQ(ch.delivered() + ch.dropped_by_model(), 400u);
  // All drops are on the one active directed link.
  EXPECT_EQ(ch.dropped_by_model(0, 1), ch.dropped_by_model());
  EXPECT_EQ(ch.dropped_by_model(1, 0), 0u);
  // Undecodable frames never surface at the attachment (they are neither
  // delivered nor reported as corrupted).
  EXPECT_EQ(l1.received.size(), ch.delivered());
}

// ---------------------------------------------------------- gilbert-elliott

TEST(LinkModel, GilbertElliottAllBadDropsEverything) {
  const Topology topo = line_topo();
  sim::Simulator sim;
  Channel ch{sim, topo};
  GilbertElliottParams p;
  p.p_good_to_bad = 1.0;
  p.p_bad_to_good = 0.0;  // stationary distribution: always bad
  p.prr_bad = 0.0;
  ch.set_link_model(
      std::make_unique<GilbertElliottModel>(p, nullptr, util::Rng{7}));
  Listener l1;
  l1.listen_on(ch, 1);
  send_frames(sim, ch, 30);
  EXPECT_EQ(ch.delivered(), 0u);
  EXPECT_EQ(ch.dropped_by_model(), 30u);
  EXPECT_TRUE(l1.received.empty());
}

TEST(LinkModel, GilbertElliottAllGoodDeliversEverything) {
  const Topology topo = line_topo();
  sim::Simulator sim;
  Channel ch{sim, topo};
  GilbertElliottParams p;
  p.p_good_to_bad = 0.0;
  p.p_bad_to_good = 1.0;
  p.prr_good = 1.0;
  ch.set_link_model(
      std::make_unique<GilbertElliottModel>(p, nullptr, util::Rng{7}));
  Listener l1;
  l1.listen_on(ch, 1);
  send_frames(sim, ch, 30);
  EXPECT_EQ(ch.delivered(), 30u);
  EXPECT_EQ(ch.dropped_by_model(), 0u);
}

TEST(LinkModel, GilbertElliottLossIsBursty) {
  // With slow state flips and a lossy bad state, consecutive-loss runs
  // should appear that independent loss at the same average rarely makes.
  GilbertElliottParams p;
  p.p_good_to_bad = 0.05;
  p.p_bad_to_good = 0.10;
  p.prr_good = 1.0;
  p.prr_bad = 0.0;
  GilbertElliottModel m{p, nullptr, util::Rng{11}};
  int longest_run = 0, run = 0, losses = 0;
  const int frames = 2000;
  for (int i = 0; i < frames; ++i) {
    if (!m.deliver(0, 1, 100.0)) {
      ++losses;
      longest_run = std::max(longest_run, ++run);
    } else {
      run = 0;
    }
  }
  EXPECT_GT(losses, frames / 10);      // bad state is visited
  EXPECT_LT(losses, frames * 9 / 10);  // good state too
  EXPECT_GE(longest_run, 5);           // bursts, not independent drops
}

// ------------------------------------------------------------ the spec

TEST(ChannelModelSpec, KindNamesRoundTrip) {
  EXPECT_STREQ(link_model_kind_name(LinkModelKind::kUnitDisc), "unit-disc");
  EXPECT_STREQ(link_model_kind_name(LinkModelKind::kLogNormalShadowing),
               "shadowing");
  EXPECT_STREQ(link_model_kind_name(LinkModelKind::kGilbertElliott),
               "gilbert-elliott");
  EXPECT_THROW(link_model_kind_name(static_cast<LinkModelKind>(99)),
               std::invalid_argument);
}

TEST(ChannelModelSpec, BuildsTheRequestedModel) {
  ChannelModelSpec spec;
  auto unit = spec.build(125.0, util::Rng{1});
  ASSERT_NE(unit, nullptr);
  EXPECT_STREQ(unit->name(), "unit-disc");

  spec.kind = LinkModelKind::kLogNormalShadowing;
  EXPECT_STREQ(spec.build(125.0, util::Rng{1})->name(), "shadowing");

  spec.kind = LinkModelKind::kGilbertElliott;
  spec.gilbert_base = LinkModelKind::kLogNormalShadowing;
  auto ge = spec.build(125.0, util::Rng{1});
  EXPECT_STREQ(ge->name(), "gilbert-elliott");

  spec.gilbert_base = LinkModelKind::kGilbertElliott;
  EXPECT_THROW(spec.build(125.0, util::Rng{1}), std::invalid_argument);
}

TEST(ChannelModelSpec, PrrScaleZeroDropsEverything) {
  const Topology topo = line_topo();
  sim::Simulator sim;
  Channel ch{sim, topo};
  ChannelModelSpec spec;  // unit disc...
  spec.prr_scale = 0.0;   // ...thinned to nothing
  EXPECT_EQ(spec.label(), "unit-disc@0");
  ch.set_link_model(spec.build(topo.range(), util::Rng{3}));
  Listener l1;
  l1.listen_on(ch, 1);
  send_frames(sim, ch, 20);
  EXPECT_EQ(ch.delivered(), 0u);
  EXPECT_EQ(ch.dropped_by_model(), 20u);
}

TEST(ChannelModelSpec, LabelIsKindPlusThinning) {
  ChannelModelSpec spec;
  EXPECT_EQ(spec.label(), "unit-disc");
  spec.kind = LinkModelKind::kGilbertElliott;
  spec.prr_scale = 0.9;
  EXPECT_EQ(spec.label(), "gilbert-elliott@0.9");
}

// ------------------------------------------------- channel-level semantics

// A scriptable model: drops every frame whose sender is in the kill set.
class KillSender : public LinkModel {
 public:
  explicit KillSender(std::vector<NodeId> senders) : senders_(std::move(senders)) {}
  bool deliver(NodeId src, NodeId, double) override {
    for (NodeId s : senders_) {
      if (s == src) return false;
    }
    return true;
  }
  const char* name() const override { return "kill-sender"; }

 private:
  std::vector<NodeId> senders_;
};

TEST(ChannelWithLinkModel, DroppedFrameDoesNotCorruptOngoingReception) {
  // Hidden terminals 0 and 2 overlap at receiver 1. Without a model that is
  // a collision; when the model declares 2's frame undecodable at 1, 0's
  // reception survives (gray-zone energy does not resync the radio).
  const Topology topo = line_topo();
  sim::Simulator sim;
  Channel ch{sim, topo};
  ch.set_link_model(std::make_unique<KillSender>(std::vector<NodeId>{2}));
  Listener l1;
  l1.listen_on(ch, 1);

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  sim.schedule_at(Time::microseconds(200), [&] {
    ch.start_tx(2, test_packet(2, 1), Time::microseconds(500));
  });
  sim.run();

  ASSERT_EQ(l1.received.size(), 1u);
  EXPECT_TRUE(l1.received[0].second);
  EXPECT_EQ(l1.received[0].first.link_src, 0);
  EXPECT_EQ(ch.collisions(), 0u);
  EXPECT_EQ(ch.dropped_by_model(), 1u);
  EXPECT_EQ(ch.dropped_by_model(2, 1), 1u);
}

TEST(ChannelWithLinkModel, DroppedFrameStillOccupiesAirForCarrierSense) {
  const Topology topo = line_topo();
  sim::Simulator sim;
  Channel ch{sim, topo};
  ch.set_link_model(std::make_unique<KillSender>(std::vector<NodeId>{0}));
  Listener l1;
  l1.listen_on(ch, 1);

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  bool busy_mid_frame = false;
  sim.schedule_at(Time::microseconds(250), [&] { busy_mid_frame = ch.busy(1); });
  sim.run();

  EXPECT_TRUE(busy_mid_frame);
  EXPECT_FALSE(ch.busy(1));  // air clears after the frame ends
  EXPECT_TRUE(l1.received.empty());
  EXPECT_EQ(ch.dropped_by_model(), 1u);
}

TEST(ChannelWithLinkModel, SameSeedSameLossSequence) {
  const Topology topo = line_topo();
  std::vector<std::uint64_t> delivered, dropped;
  for (int pass = 0; pass < 2; ++pass) {
    sim::Simulator sim;
    Channel ch{sim, topo};
    ChannelModelSpec spec;
    spec.kind = LinkModelKind::kGilbertElliott;
    spec.gilbert_base = LinkModelKind::kLogNormalShadowing;
    spec.prr_scale = 0.95;
    ch.set_link_model(spec.build(topo.range(), util::Rng{99}));
    Listener l1;
    l1.listen_on(ch, 1);
    send_frames(sim, ch, 200);
    delivered.push_back(ch.delivered());
    dropped.push_back(ch.dropped_by_model());
  }
  EXPECT_EQ(delivered[0], delivered[1]);
  EXPECT_EQ(dropped[0], dropped[1]);
  EXPECT_GT(dropped[0], 0u);
}

}  // namespace
}  // namespace essat::net
