#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "bench/alloc_hook.h"
#include "src/net/channel.h"
#include "src/net/mobility.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace essat::net {
namespace {

using util::Time;

// Brute-force all-pairs reference (the pre-grid neighbor build).
std::vector<std::vector<NodeId>> all_pairs_neighbors(
    const std::vector<Position>& pos, double range) {
  std::vector<std::vector<NodeId>> out(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (distance(pos[i], pos[j]) <= range) {
        out[i].push_back(static_cast<NodeId>(j));
        out[j].push_back(static_cast<NodeId>(i));
      }
    }
  }
  return out;
}

// A copy of a neighbor view: a view lasts only until the next rebuild.
std::vector<NodeId> copy_of(Topology::NeighborView v) {
  return std::vector<NodeId>(v.begin(), v.end());
}

// Scripted motion for the tests: each scripted node moves linearly from its
// initial position at t = 0 through its (time, position) checkpoints, which
// are in increasing time order, and holds the last one. Unscripted nodes,
// and every node of a script with no paths, never move.
class ScriptedMobility : public MobilityModel {
 public:
  struct Path {
    NodeId node = kNoNode;
    std::vector<std::pair<Time, Position>> points;
  };

  explicit ScriptedMobility(std::vector<Position> initial,
                            std::vector<Path> paths = {})
      : initial_{std::move(initial)}, paths_{std::move(paths)} {}

  void positions_at(Time t, std::vector<Position>& out) override {
    out = initial_;
    for (const Path& path : paths_) {
      Position& pos = out[static_cast<std::size_t>(path.node)];
      Time from_t = Time::zero();
      for (const auto& [to_t, to] : path.points) {
        if (t < to_t) {
          const double f = (t - from_t) / (to_t - from_t);
          pos = Position{pos.x + (to.x - pos.x) * f, pos.y + (to.y - pos.y) * f};
          break;
        }
        pos = to;
        from_t = to_t;
      }
    }
  }
  const char* name() const override { return "scripted"; }

 private:
  std::vector<Position> initial_;
  std::vector<Path> paths_;
};

// ------------------------------------------------------ grid spatial index

TEST(TopologyGrid, NeighborListsIdenticalToAllPairsScan) {
  util::Rng rng{11};
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 20 + static_cast<std::size_t>(trial) * 60;
    const Topology topo = Topology::uniform_random(n, 400.0, 125.0, rng);
    const auto reference = all_pairs_neighbors(topo.positions(), topo.range());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(copy_of(topo.neighbors(static_cast<NodeId>(i))), reference[i])
          << "node " << i << " trial " << trial;
    }
  }
}

TEST(TopologyGrid, MatchesAllPairsOnEverySpecKind) {
  util::Rng rng{5};
  for (TopologyKind kind :
       {TopologyKind::kUniform, TopologyKind::kGrid, TopologyKind::kLine,
        TopologyKind::kClustered, TopologyKind::kCorridor}) {
    DeploymentSpec spec;
    spec.kind = kind;
    spec.num_nodes = 60;
    const Topology topo = spec.build(rng);
    const auto reference = all_pairs_neighbors(topo.positions(), topo.range());
    for (std::size_t i = 0; i < topo.num_nodes(); ++i) {
      EXPECT_EQ(copy_of(topo.neighbors(static_cast<NodeId>(i))), reference[i])
          << topology_kind_name(kind) << " node " << i;
    }
  }
}

TEST(TopologyGrid, DegenerateCases) {
  // Empty and single-node topologies, plus co-located nodes.
  const Topology empty{{}, 100.0};
  EXPECT_EQ(empty.num_nodes(), 0u);
  const Topology one{{Position{3.0, 4.0}}, 100.0};
  EXPECT_TRUE(one.neighbors(0).empty());
  const Topology same{{Position{1.0, 1.0}, Position{1.0, 1.0}}, 100.0};
  EXPECT_EQ(copy_of(same.neighbors(0)), std::vector<NodeId>{1});
  EXPECT_EQ(copy_of(same.neighbors(1)), std::vector<NodeId>{0});
}

TEST(TopologyGrid, SparseHugeExtentStaysExact) {
  // Two clusters separated by an extent vastly larger than the range: the
  // cell-capping fallback must not change results (or blow up memory).
  std::vector<Position> pos;
  for (int i = 0; i < 10; ++i) pos.push_back(Position{i * 10.0, 0.0});
  for (int i = 0; i < 10; ++i) pos.push_back(Position{1e7 + i * 10.0, 5.0});
  const Topology topo{pos, 125.0};
  const auto reference = all_pairs_neighbors(pos, 125.0);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(copy_of(topo.neighbors(static_cast<NodeId>(i))), reference[i]);
  }
}

// ----------------------------------------------------------- static model

TEST(Mobility, StaticModelNeverMoves) {
  util::Rng rng{3};
  Topology topo = Topology::uniform_random(30, 300.0, 125.0, rng);
  const std::vector<Position> before = topo.positions();
  const std::vector<NodeId> neighbors_before = copy_of(topo.neighbors(0));

  topo.set_mobility_model(std::make_shared<ScriptedMobility>(before),
                          Time::seconds(5));
  EXPECT_TRUE(topo.time_varying());
  topo.advance_to(Time::seconds(5));
  topo.advance_to(Time::seconds(123));
  EXPECT_EQ(topo.positions(), before);
  EXPECT_EQ(copy_of(topo.neighbors(0)), neighbors_before);
}

TEST(Mobility, AdvanceRebuildsOncePerEpoch) {
  util::Rng rng{3};
  Topology topo = Topology::uniform_random(10, 300.0, 125.0, rng);
  topo.set_mobility_model(std::make_shared<ScriptedMobility>(topo.positions()),
                          Time::seconds(5));
  const auto base = topo.neighbor_rebuilds();
  topo.advance_to(Time::seconds(2));           // still epoch 0
  EXPECT_EQ(topo.neighbor_rebuilds(), base);
  topo.advance_to(Time::seconds(5));           // epoch 1
  EXPECT_EQ(topo.neighbor_rebuilds(), base + 1);
  topo.advance_to(Time::seconds(7));           // still epoch 1
  EXPECT_EQ(topo.neighbor_rebuilds(), base + 1);
  topo.advance_to(Time::seconds(15));          // epoch 3 (lazy: one rebuild)
  EXPECT_EQ(topo.neighbor_rebuilds(), base + 2);
}

TEST(Mobility, NoModelAdvanceIsNoOp) {
  util::Rng rng{3};
  Topology topo = Topology::uniform_random(10, 300.0, 125.0, rng);
  EXPECT_FALSE(topo.time_varying());
  const auto base = topo.neighbor_rebuilds();
  topo.advance_to(Time::seconds(100));
  EXPECT_EQ(topo.neighbor_rebuilds(), base);
}

// -------------------------------------------------------- random waypoint

TEST(Mobility, RandomWaypointStaysInBoundsAndMoves) {
  std::vector<Position> initial(20, Position{250.0, 250.0});
  RandomWaypointParams params;
  params.speed_min_mps = 1.0;
  params.speed_max_mps = 2.0;
  params.pause_s = 1.0;
  RandomWaypointMobility model{initial, 500.0, 500.0, params, util::Rng{9}};

  std::vector<Position> pos;
  bool moved = false;
  for (int s = 0; s <= 600; s += 5) {
    model.positions_at(Time::seconds(s), pos);
    ASSERT_EQ(pos.size(), initial.size());
    for (const Position& p : pos) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 500.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 500.0);
    }
    if (distance(pos[0], initial[0]) > 1.0) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(Mobility, RandomWaypointRespectsSpeedBound) {
  std::vector<Position> initial(8, Position{100.0, 100.0});
  RandomWaypointParams params;
  params.speed_min_mps = 1.0;
  params.speed_max_mps = 2.0;
  params.pause_s = 0.0;
  RandomWaypointMobility model{initial, 200.0, 200.0, params, util::Rng{4}};

  std::vector<Position> prev, cur;
  model.positions_at(Time::zero(), prev);
  for (int s = 1; s <= 200; ++s) {
    model.positions_at(Time::seconds(s), cur);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      // One second at top speed 2 m/s; small slack for a turn mid-interval
      // (the displacement chord is at most the path length).
      EXPECT_LE(distance(prev[i], cur[i]), 2.0 + 1e-9);
    }
    prev = cur;
  }
}

TEST(Mobility, RandomWaypointDeterministicPerSeedAndNode) {
  std::vector<Position> initial;
  for (int i = 0; i < 6; ++i) initial.push_back(Position{i * 10.0, 0.0});
  RandomWaypointParams params;
  auto run = [&](std::uint64_t seed) {
    RandomWaypointMobility m{initial, 300.0, 300.0, params, util::Rng{seed}};
    std::vector<Position> out;
    m.positions_at(Time::seconds(97), out);
    return out;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// ------------------------------------------------------------- neighbors
// track motion through advance_to

TEST(Mobility, AdvanceUpdatesNeighborSets) {
  // Node 1 starts out of range of node 0 and walks into range by t = 10 s.
  std::vector<Position> initial{Position{0.0, 0.0}, Position{200.0, 0.0}};
  Topology topo{initial, 125.0};
  EXPECT_TRUE(topo.neighbors(0).empty());

  topo.set_mobility_model(
      std::make_shared<ScriptedMobility>(
          initial, std::vector<ScriptedMobility::Path>{
                       {1, {{Time::seconds(10), Position{100.0, 0.0}}}}}),
      Time::seconds(5));

  topo.advance_to(Time::seconds(5));  // halfway: still 150 m apart
  EXPECT_TRUE(topo.neighbors(0).empty());
  topo.advance_to(Time::seconds(10));
  EXPECT_EQ(copy_of(topo.neighbors(0)), std::vector<NodeId>{1});
  EXPECT_EQ(copy_of(topo.neighbors(1)), std::vector<NodeId>{0});
  EXPECT_TRUE(topo.in_range(0, 1));
}

// A neighbor rebuild landing mid-frame must not corrupt the channel's
// carrier-sense bookkeeping: the receiver set is frozen at transmit time.
TEST(Mobility, ChannelSurvivesEpochTickMidFrame) {
  std::vector<Position> initial{Position{0.0, 0.0}, Position{100.0, 0.0}};
  Topology topo{initial, 125.0};
  // Node 1 walks out of range while the frame is on the air.
  topo.set_mobility_model(
      std::make_shared<ScriptedMobility>(
          initial,
          std::vector<ScriptedMobility::Path>{
              {1, {{Time::from_milliseconds(1.0), Position{1000.0, 0.0}}}}}),
      Time::from_milliseconds(0.5));

  sim::Simulator sim;
  Channel ch{sim, topo};
  struct Counting : ChannelListener {
    int completions = 0;
    void on_rx_complete(const Packet&, bool ok) override {
      ++completions;
      EXPECT_TRUE(ok);
    }
    void on_channel_activity() override {}
  } l1;
  ch.attach(1, &l1);
  ch.set_listening(1, true);
  int& completions = l1.completions;

  DataHeader h;
  ch.start_tx(0, make_data_packet(0, 1, h), Time::from_milliseconds(2.0));
  // Rebuild neighbors mid-frame: node 1 leaves node 0's range.
  sim.schedule_at(Time::from_milliseconds(1.0),
                  [&] { topo.advance_to(Time::from_milliseconds(1.0)); });
  sim.run();

  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(ch.busy(1));  // arriving_count drained cleanly
  EXPECT_TRUE(topo.neighbors(0).empty());
}

// ------------------------------------------------- Verlet candidate lists

// Fails naming the first node whose current list differs from the
// all-pairs scan.
testing::AssertionResult matches_all_pairs(const Topology& topo) {
  const auto reference = all_pairs_neighbors(topo.positions(), topo.range());
  for (std::size_t i = 0; i < topo.num_nodes(); ++i) {
    if (copy_of(topo.neighbors(static_cast<NodeId>(i))) != reference[i]) {
      return testing::AssertionFailure() << "node " << i << " differs from the all-pairs scan";
    }
  }
  return testing::AssertionSuccess();
}

// The dynamic workload's deployment (120 nodes at the paper's density,
// random waypoint at 0.5-2 m/s with 20 s pauses) at 1x, 10x and 100x its
// speeds, with epochs of 1 ms, 0.1 s and 5 s: per epoch a node moves from
// micrometres to a kilometre, so epochs range from pure re-filters to a
// candidate rebuild every time.
TEST(MobilityVerlet, EveryEpochMatchesAllPairs) {
  const double side = 500.0 * std::sqrt(120.0 / 80.0);
  for (double speedup : {1.0, 10.0, 100.0}) {
    for (Time epoch : {Time::milliseconds(1), Time::milliseconds(100), Time::seconds(5)}) {
      util::Rng placement{21};
      Topology topo = Topology::uniform_random(120, side, 125.0, placement);
      RandomWaypointParams params;
      params.speed_min_mps = 0.5 * speedup;
      params.speed_max_mps = 2.0 * speedup;
      params.pause_s = 20.0;
      topo.set_mobility_model(std::make_shared<RandomWaypointMobility>(
                                  topo.positions(), side, side, params, util::Rng{22}),
                              epoch);
      for (int k = 1; k <= 1000; ++k) {
        topo.advance_to(epoch * k);
        ASSERT_TRUE(matches_all_pairs(topo))
            << "speed x" << speedup << ", epoch " << epoch.ns() << " ns, epoch #" << k;
      }
    }
  }
}

TEST(MobilityVerlet, MovesFartherThanTheSkinInOneEpoch) {
  // A row of static nodes 50 m apart. Node 10 jumps 525 m in the first
  // 1 s epoch, then walks along the row at 40 m per epoch: four times the
  // 10 m skin of a 125 m range. Nodes 11 and 12 close head-on at 3 m per
  // epoch each, so only their sum reaches half the skin.
  std::vector<Position> initial;
  for (int i = 0; i < 10; ++i) initial.push_back(Position{50.0 * i, 0.0});
  initial.push_back(Position{-300.0, 30.0});
  initial.push_back(Position{1000.0, 500.0});
  initial.push_back(Position{1200.0, 500.0});
  std::vector<ScriptedMobility::Path> paths{
      {10, {{Time::seconds(1), Position{225.0, 30.0}},
            {Time::seconds(11), Position{625.0, 30.0}}}},
      {11, {{Time::seconds(30), Position{1090.0, 500.0}}}},
      {12, {{Time::seconds(30), Position{1110.0, 500.0}}}}};
  Topology topo{initial, 125.0};
  topo.set_mobility_model(
      std::make_shared<ScriptedMobility>(initial, std::move(paths)),
      Time::seconds(1));
  for (int k = 1; k <= 30; ++k) {
    topo.advance_to(Time::seconds(k));
    ASSERT_TRUE(matches_all_pairs(topo)) << "epoch " << k;
    if (k == 1) EXPECT_FALSE(topo.neighbors(10).empty());
  }
  EXPECT_EQ(copy_of(topo.neighbors(11)), std::vector<NodeId>{12});
}

// Node 1 alternates each epoch between exactly `range` from node 0 and
// the next double beyond it: a candidate pair whose membership flips on
// the inclusive boundary every epoch.
class OscillatingPair : public MobilityModel {
 public:
  explicit OscillatingPair(Time epoch) : epoch_{epoch} {}
  void positions_at(Time t, std::vector<Position>& out) override {
    const bool at_range = (t.ns() / epoch_.ns()) % 2 == 0;
    out[0] = Position{0.0, 0.0};
    out[1] = Position{at_range ? 125.0 : std::nextafter(125.0, 200.0), 0.0};
  }
  const char* name() const override { return "oscillating"; }

 private:
  Time epoch_;
};

TEST(MobilityVerlet, PairOscillatingAcrossExactRange) {
  Topology topo{{Position{0.0, 0.0}, Position{125.0, 0.0}}, 125.0};
  const Time epoch = Time::milliseconds(100);
  topo.set_mobility_model(std::make_shared<OscillatingPair>(epoch), epoch);
  for (int k = 1; k <= 20; ++k) {
    topo.advance_to(epoch * k);
    EXPECT_EQ(topo.neighbors(0).size(), k % 2 == 0 ? 1u : 0u) << "epoch " << k;
    ASSERT_TRUE(matches_all_pairs(topo)) << "epoch " << k;
  }
}

// Frames pin the list generation current at transmit time. Frame A spans
// five rebuilds, and frame B overlaps it from another generation: each
// keeps its transmit-time receivers although both lists change under it,
// carrier sense drains at every node, and once both frames end the freed
// buffers carry the later epochs — another frame across rebuilds
// included — without allocating.
TEST(MobilityPinning, FramesSpanningRebuildsKeepTheirReceivers) {
  // 0: sender A. 1: A's receiver, gone by 1.5 ms. 2: sender B, far from A.
  // 3: B's receiver, leaves at 3 ms, gone by 4 ms. 4: walks into A's
  // range by 2 ms.
  const std::vector<Position> initial{Position{0.0, 0.0}, Position{100.0, 0.0},
                                      Position{0.0, 1000.0}, Position{100.0, 1000.0},
                                      Position{0.0, 400.0}};
  std::vector<ScriptedMobility::Path> paths{
      {1, {{Time::from_milliseconds(1.5), Position{1000.0, 0.0}}}},
      {3, {{Time::milliseconds(3), Position{100.0, 1000.0}},
           {Time::milliseconds(4), Position{100.0, 2000.0}}}},
      {4, {{Time::milliseconds(2), Position{0.0, 100.0}}}}};
  Topology topo{initial, 125.0};
  const Time epoch = Time::milliseconds(1);
  topo.set_mobility_model(
      std::make_shared<ScriptedMobility>(initial, std::move(paths)), epoch);

  sim::Simulator sim;
  sim.reserve_events(256);
  Channel ch{sim, topo};
  struct Recorder : ChannelListener {
    int ok = 0;
    int failed = 0;
    void on_rx_complete(const Packet&, bool good) override { ++(good ? ok : failed); }
    void on_channel_activity() override {}
  };
  std::vector<Recorder> rec(initial.size());
  for (std::size_t n = 0; n < rec.size(); ++n) {
    ch.attach(static_cast<NodeId>(n), &rec[n]);
    ch.set_listening(static_cast<NodeId>(n), true);
  }
  const auto ticks = [&](int first, int last) {
    for (int k = first; k <= last; ++k) {
      sim.schedule_at(epoch * k, [&topo, t = epoch * k] { topo.advance_to(t); });
    }
  };
  const auto send = [&](NodeId sender, Time at, Time duration) {
    sim.schedule_at(at, [&ch, sender, duration] {
      ch.start_tx(sender, make_data_packet(sender, kNoNode, {}), duration);
    });
  };

  ticks(1, 20);
  send(0, Time::zero(), Time::milliseconds(5));                   // A
  send(2, Time::from_milliseconds(2.5), Time::milliseconds(4));  // B
  sim.run();

  EXPECT_EQ(rec[1].ok, 1);  // left A's range mid-frame, still received
  EXPECT_EQ(rec[3].ok, 1);  // left B's range mid-frame, still received
  EXPECT_EQ(rec[4].ok + rec[4].failed, 0);  // joined A's range too late
  EXPECT_EQ(rec[0].ok + rec[0].failed + rec[2].ok + rec[2].failed, 0);
  for (std::size_t n = 0; n < rec.size(); ++n) {
    EXPECT_FALSE(ch.busy(static_cast<NodeId>(n))) << "node " << n;
  }
  EXPECT_EQ(copy_of(topo.neighbors(0)), std::vector<NodeId>{4});
  EXPECT_TRUE(topo.neighbors(2).empty());

  const std::uint64_t rebuilds = topo.neighbor_rebuilds();
  {
    bench_alloc::AllocationCounter scope;
    ticks(21, 40);
    send(0, Time::from_milliseconds(24.5), Time::milliseconds(3));
    sim.run();
    EXPECT_EQ(scope.count(), 0u) << "epochs after the frames allocated";
  }
  EXPECT_EQ(topo.neighbor_rebuilds(), rebuilds + 20);
  EXPECT_EQ(rec[4].ok, 1);  // the later frame's transmit-time receiver
  EXPECT_FALSE(ch.busy(4));
}

// ------------------------------------------------------------------ spec

TEST(MobilitySpec, KindNamesRoundTrip) {
  EXPECT_STREQ(mobility_kind_name(MobilityKind::kStatic), "static");
  EXPECT_STREQ(mobility_kind_name(MobilityKind::kRandomWaypoint), "waypoint");
  EXPECT_THROW(mobility_kind_name(static_cast<MobilityKind>(99)),
               std::invalid_argument);
}

TEST(MobilitySpec, StaticBuildsNothingOthersBuild) {
  std::vector<Position> initial{Position{0.0, 0.0}};
  MobilitySpec spec;
  EXPECT_EQ(spec.build(initial, 100.0, 100.0, util::Rng{1}), nullptr);
  EXPECT_EQ(spec.label(), "static");

  spec.kind = MobilityKind::kRandomWaypoint;
  auto waypoint = spec.build(initial, 100.0, 100.0, util::Rng{1});
  ASSERT_NE(waypoint, nullptr);
  EXPECT_STREQ(waypoint->name(), "waypoint");
  EXPECT_EQ(spec.label(), "waypoint@1.5mps");
}

TEST(MobilitySpec, DeploymentExtentIsShapeAware) {
  DeploymentSpec d;
  d.area_m = 400.0;
  EXPECT_EQ(d.extent(), (Position{400.0, 400.0}));
  d.kind = TopologyKind::kLine;
  EXPECT_EQ(d.extent(), (Position{400.0, 0.0}));
  d.kind = TopologyKind::kCorridor;
  d.corridor_width_m = 60.0;
  EXPECT_EQ(d.extent(), (Position{400.0, 60.0}));
}

}  // namespace
}  // namespace essat::net
