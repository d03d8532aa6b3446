#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/channel.h"
#include "src/net/link_model.h"
#include "src/routing/link_estimator.h"
#include "src/routing/parent_policy.h"
#include "src/routing/repair.h"
#include "src/routing/tree.h"
#include "src/sim/simulator.h"

namespace essat::routing {
namespace {

using util::Time;

// ---------------------------------------------------------- RoutingSpec

TEST(RoutingSpec, BuildsMinHopAndEtx) {
  RoutingSpec spec;
  const auto min_hop = spec.build(PolicyContext{});
  ASSERT_NE(min_hop, nullptr);
  EXPECT_STREQ(min_hop->name(), "min-hop");
  EXPECT_FALSE(min_hop->uses_link_estimator());

  const net::Topology topo = net::Topology::line(2, 100.0, 125.0);
  sim::Simulator sim;
  net::Channel ch{sim, topo};
  const LinkEstimator est{ch, topo};
  spec.policy = "etx";
  const auto etx = spec.build(PolicyContext{&topo, &est, spec.etx});
  ASSERT_NE(etx, nullptr);
  EXPECT_STREQ(etx->name(), "etx");
  EXPECT_TRUE(etx->uses_link_estimator());
  EXPECT_DOUBLE_EQ(etx->link_cost(0, 1), 1.0);  // lossless unit disc
}

TEST(RoutingSpec, UnknownKeyListsBothNames) {
  RoutingSpec spec;
  spec.policy = "steiner";
  try {
    (void)spec.build(PolicyContext{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("steiner"), std::string::npos);
    EXPECT_NE(msg.find("min-hop"), std::string::npos);
    EXPECT_NE(msg.find("etx"), std::string::npos);
  }
}

TEST(RoutingSpec, EtxRequiresEstimator) {
  RoutingSpec spec;
  spec.policy = "etx";
  EXPECT_THROW((void)spec.build(PolicyContext{}), std::invalid_argument);
}

TEST(RoutingSpec, BuildsPolicyOrLegacySentinel) {
  RoutingSpec spec;
  EXPECT_EQ(spec.label(), "min-hop");
  auto min_hop = spec.build(PolicyContext{});
  ASSERT_NE(min_hop, nullptr);
  EXPECT_STREQ(min_hop->name(), "min-hop");

  // "legacy" names no policy: it fails like any unknown key.
  spec.policy = "legacy";
  try {
    (void)spec.build(PolicyContext{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("legacy"), std::string::npos);
    EXPECT_NE(msg.find("min-hop"), std::string::npos);
    EXPECT_NE(msg.find("etx"), std::string::npos);
  }
}

// -------------------------------------------- central build equivalence

TEST(PolicyTree, MinHopIdenticalToBfsOnRandomTopologies) {
  MinHopPolicy min_hop;
  util::Rng rng{21};
  for (int trial = 0; trial < 12; ++trial) {
    const net::Topology topo =
        net::Topology::uniform_random(40 + trial * 10, 400.0, 125.0, rng);
    const net::NodeId root = topo.nearest(net::Position{200.0, 200.0});
    const Tree bfs = build_bfs_tree(topo, root, 300.0);
    const Tree policy = build_policy_tree(topo, root, 300.0, &min_hop);
    ASSERT_EQ(policy.member_count(), bfs.member_count()) << "trial " << trial;
    for (net::NodeId n : bfs.members()) {
      EXPECT_EQ(policy.is_member(n), bfs.is_member(n));
      EXPECT_EQ(policy.parent(n), bfs.parent(n)) << "node " << n;
      EXPECT_EQ(policy.level(n), bfs.level(n)) << "node " << n;
      EXPECT_EQ(policy.rank(n), bfs.rank(n)) << "node " << n;
      EXPECT_EQ(policy.children(n), bfs.children(n)) << "node " << n;
    }
  }
  // No silent BFS fallback: a null policy is an error.
  const net::Topology line = net::Topology::line(5, 100.0, 125.0);
  EXPECT_THROW(build_policy_tree(line, 0, 300.0, nullptr),
               std::invalid_argument);
}

// ------------------------------------------------------- link estimator

// A scriptable model with a fixed expected PRR per link.
class FixedPrr : public net::LinkModel {
 public:
  explicit FixedPrr(double prr) : prr_{prr} {}
  bool deliver(net::NodeId, net::NodeId, double, std::uint64_t) override {
    return true;
  }
  const char* name() const override { return "fixed"; }
  double expected_prr(net::NodeId, net::NodeId, double) const override {
    return prr_;
  }

 private:
  double prr_;
};

TEST(LinkEstimator, NoModelMeansLosslessPrior) {
  const net::Topology topo = net::Topology::line(2, 100.0, 125.0);
  sim::Simulator sim;
  net::Channel ch{sim, topo};
  const LinkEstimator est{ch, topo};
  EXPECT_DOUBLE_EQ(est.prr(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(est.etx(0, 1), 1.0);
}

TEST(LinkEstimator, UsesModelPriorBeforeTraffic) {
  const net::Topology topo = net::Topology::line(2, 100.0, 125.0);
  sim::Simulator sim;
  net::Channel ch{sim, topo};
  ch.set_link_model(std::make_unique<FixedPrr>(0.5));
  const LinkEstimator est{ch, topo};
  EXPECT_DOUBLE_EQ(est.prr(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(est.etx(0, 1), 4.0);  // 1 / (0.5 * 0.5)
}

TEST(LinkEstimator, ObservedLossesPullEstimateBelowPrior) {
  // Model claims PRR 1 but drops everything on 0 -> 1: after enough frames
  // the observed statistics dominate the (wrong) prior. The channel counts
  // only frames its receiver could decode, so node 1 listens throughout.
  class DropForward : public net::LinkModel {
   public:
    bool deliver(net::NodeId src, net::NodeId dst, double,
                 std::uint64_t) override {
      return !(src == 0 && dst == 1);
    }
    const char* name() const override { return "drop-fwd"; }
  };
  const net::Topology topo = net::Topology::line(2, 100.0, 125.0);
  sim::Simulator sim;
  net::Channel ch{sim, topo};
  ch.set_link_model(std::make_unique<DropForward>());
  struct Ear : net::ChannelListener {
    void on_rx_complete(const net::Packet&, bool) override {}
    void on_channel_activity() override {}
  } ear;
  ch.attach(1, &ear);
  ch.set_listening(1, true);
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(Time::milliseconds(2 * i), [&ch] {
      ch.start_tx(0, net::make_data_packet(0, 1, net::DataHeader{}),
                  Time::microseconds(400));
    });
  }
  sim.run();
  EXPECT_EQ(ch.frames_on(0, 1), 100u);
  EXPECT_EQ(ch.dropped_by_model(0, 1), 100u);

  EtxParams params;
  params.prior_weight = 8.0;
  params.min_prr = 0.05;
  const LinkEstimator est{ch, topo, params};
  // (8 * 1 + 0) / (8 + 100) ~= 0.074.
  EXPECT_NEAR(est.prr(0, 1), 8.0 / 108.0, 1e-12);
  EXPECT_DOUBLE_EQ(est.prr(1, 0), 1.0);  // reverse direction saw no frames
}

TEST(LinkEstimator, MinPrrFloorsEtx) {
  const net::Topology topo = net::Topology::line(2, 100.0, 125.0);
  sim::Simulator sim;
  net::Channel ch{sim, topo};
  ch.set_link_model(std::make_unique<FixedPrr>(0.0));
  EtxParams params;
  params.min_prr = 0.1;
  const LinkEstimator est{ch, topo, params};
  EXPECT_DOUBLE_EQ(est.prr(0, 1), 0.1);
  EXPECT_DOUBLE_EQ(est.etx(0, 1), 100.0);
}

// --------------------------------------------------- expected_prr priors

TEST(ExpectedPrr, UnitDiscAndScaledAndGilbert) {
  net::UnitDiscModel unit;
  EXPECT_DOUBLE_EQ(unit.expected_prr(0, 1, 50.0), 1.0);

  net::PrrScaledModel scaled{std::make_unique<net::UnitDiscModel>(), 0.8, 1};
  EXPECT_DOUBLE_EQ(scaled.expected_prr(0, 1, 50.0), 0.8);

  net::GilbertElliottParams gp;
  gp.p_good_to_bad = 0.1;
  gp.p_bad_to_good = 0.3;
  gp.prr_good = 1.0;
  gp.prr_bad = 0.2;
  net::GilbertElliottModel ge{gp, nullptr, 1};
  // Stationary bad = 0.1 / 0.4 = 0.25; expected = 0.75 * 1 + 0.25 * 0.2.
  EXPECT_NEAR(ge.expected_prr(0, 1, 50.0), 0.8, 1e-12);

  net::ShadowingParams sp;
  sp.shadowing_sigma_db = 0.0;
  net::LogNormalShadowingModel shadow{sp, 125.0, 1};
  EXPECT_DOUBLE_EQ(shadow.expected_prr(0, 1, 60.0), shadow.link_prr(0, 1, 60.0));
}

// ------------------------------------------------------------ etx policy

// Three nodes on a line: 0 (root) -- 1 -- 2, all mutually in range, but the
// long 0<->2 link has terrible PRR. Min-hop attaches 2 directly to the
// root; ETX detours through 1.
struct GrayZoneWorld {
  GrayZoneWorld()
      : topo{{net::Position{0.0, 0.0}, net::Position{60.0, 0.0},
              net::Position{120.0, 0.0}},
             125.0},
        channel{sim, topo} {
    auto model = std::make_unique<DistancePrr>();
    channel.set_link_model(std::move(model));
  }

  // PRR 1 for hops <= 65 m, 0.2 beyond.
  class DistancePrr : public net::LinkModel {
   public:
    bool deliver(net::NodeId, net::NodeId, double d, std::uint64_t) override {
      return d <= 65.0;
    }
    const char* name() const override { return "distance-prr"; }
    double expected_prr(net::NodeId, net::NodeId, double d) const override {
      return d <= 65.0 ? 1.0 : 0.2;
    }
  };

  sim::Simulator sim;
  net::Topology topo;
  net::Channel channel;
};

TEST(EtxPolicy, RoutesAroundGrayZoneLink) {
  GrayZoneWorld w;
  const LinkEstimator est{w.channel, w.topo};
  EtxPolicy etx{est, EtxParams{}};
  MinHopPolicy min_hop;

  const Tree greedy = build_policy_tree(w.topo, 0, 10000.0, &min_hop);
  EXPECT_EQ(greedy.parent(2), 0);  // one marginal hop
  EXPECT_EQ(greedy.level(2), 1);

  const Tree careful = build_policy_tree(w.topo, 0, 10000.0, &etx);
  EXPECT_EQ(careful.parent(2), 1);  // two reliable hops
  EXPECT_EQ(careful.parent(1), 0);
  EXPECT_EQ(careful.level(2), 2);
  // Path cost through 1: 2 good hops = 2; direct: 1 / 0.04 = 25.
  EXPECT_NEAR(etx.path_cost(careful, 2), 2.0, 1e-9);
}

TEST(EtxPolicy, RepairPrefersReliableParent) {
  GrayZoneWorld w;
  const LinkEstimator est{w.channel, w.topo};
  EtxPolicy etx{est, EtxParams{}};

  // Tree where 2 hangs off the root directly; declare that link broken.
  Tree tree{3};
  tree.set_root(0);
  tree.add_node(1, 0);
  tree.add_node(2, 0);
  tree.recompute_ranks();

  RepairService repair{w.topo, tree};
  repair.set_policy(etx);
  ASSERT_TRUE(repair.reparent(2, nullptr));
  EXPECT_EQ(tree.parent(2), 1);  // not the gray-zone root link
  EXPECT_EQ(tree.level(2), 2);
}

TEST(EtxPolicy, RepairWithoutPolicyKeepsLegacyLowestLevel) {
  GrayZoneWorld w;
  Tree tree{3};
  tree.set_root(0);
  tree.add_node(1, 0);
  tree.add_node(2, 0);
  tree.recompute_ranks();

  RepairService repair{w.topo, tree};  // default MinHopPolicy
  ASSERT_TRUE(repair.reparent(2, nullptr));
  // Lowest level wins; the only candidate excluding the old parent is
  // node 1.
  EXPECT_EQ(tree.parent(2), 1);
}

TEST(EtxPolicy, LinkCostIsCapped) {
  GrayZoneWorld w;
  EtxParams ep;
  ep.min_prr = 0.01;
  const LinkEstimator est{w.channel, w.topo, ep};
  EtxParams params;
  params.max_link_etx = 16.0;
  EtxPolicy etx{est, params};
  // Raw ETX of the long link would be 25; the cap clamps it.
  EXPECT_DOUBLE_EQ(etx.link_cost(2, 0), 16.0);
}

}  // namespace
}  // namespace essat::routing
