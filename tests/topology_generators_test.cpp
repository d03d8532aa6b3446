#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "src/net/topology.h"
#include "src/routing/tree.h"

namespace essat::net {
namespace {

void expect_symmetric(const Topology& t) {
  for (NodeId a = 0; a < static_cast<NodeId>(t.num_nodes()); ++a) {
    for (NodeId b : t.neighbors(a)) {
      const auto& back = t.neighbors(b);
      EXPECT_NE(std::find(back.begin(), back.end(), a), back.end())
          << "asymmetric edge " << a << " -> " << b;
    }
  }
}

void expect_in_box(const Topology& t, double max_x, double max_y) {
  for (NodeId n = 0; n < static_cast<NodeId>(t.num_nodes()); ++n) {
    EXPECT_GE(t.position(n).x, 0.0);
    EXPECT_LE(t.position(n).x, max_x);
    EXPECT_GE(t.position(n).y, 0.0);
    EXPECT_LE(t.position(n).y, max_y);
  }
}

TEST(TopologyGenerators, GridAreaExactCountSpanAndConnectivity) {
  // 10 nodes -> 4 columns x 3 rows over 200 m: 66.7 m columns, 100 m rows,
  // both within the 125 m range.
  const Topology t = Topology::grid_area(10, 200.0, 125.0);
  EXPECT_EQ(t.num_nodes(), 10u);
  expect_in_box(t, 200.0, 200.0);
  expect_symmetric(t);
  EXPECT_TRUE(t.connected());
}

TEST(TopologyGenerators, GridAreaPerfectSquareMatchesGrid) {
  // 9 nodes over 200 m: a 3x3 lattice with 100 m spacing.
  const Topology t = Topology::grid_area(9, 200.0, 125.0);
  EXPECT_EQ(t.num_nodes(), 9u);
  EXPECT_EQ(t.neighbors(4).size(), 4u);  // centre: 4 axis neighbors
  EXPECT_DOUBLE_EQ(t.position(8).x, 200.0);
  EXPECT_DOUBLE_EQ(t.position(8).y, 200.0);
}

TEST(TopologyGenerators, ClusteredStaysInAreaSymmetricDeterministic) {
  util::Rng a{17};
  util::Rng b{17};
  const Topology ta = Topology::clustered(60, 500.0, 125.0, 4, 40.0, a);
  const Topology tb = Topology::clustered(60, 500.0, 125.0, 4, 40.0, b);
  EXPECT_EQ(ta.num_nodes(), 60u);
  expect_in_box(ta, 500.0, 500.0);
  expect_symmetric(ta);
  for (NodeId n = 0; n < 60; ++n) EXPECT_EQ(ta.position(n), tb.position(n));
}

TEST(TopologyGenerators, ClusteredIsConnectedUnderDefaultKnobs) {
  // The default ring layout (centres at radius area/4, sigma 40) must
  // bridge adjacent clusters for paper-scale densities; checked across a
  // handful of seeds since the generators are deterministic per seed.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng rng{seed};
    const Topology t = Topology::clustered(80, 500.0, 125.0, 4, 40.0, rng);
    EXPECT_TRUE(t.connected()) << "seed " << seed;
  }
}

TEST(TopologyGenerators, CorridorShapeAndDepth) {
  util::Rng rng{23};
  const Topology t = Topology::corridor(60, 1000.0, 50.0, 125.0, rng);
  EXPECT_EQ(t.num_nodes(), 60u);
  expect_in_box(t, 1000.0, 50.0);
  expect_symmetric(t);
  EXPECT_TRUE(t.connected());
  // The elongated shape must produce a deeper tree than a square area.
  const NodeId root = t.nearest(Position{500.0, 25.0});
  const routing::Tree tree = routing::build_bfs_tree(t, root, 1e9);
  EXPECT_GE(tree.max_rank(), 3);
}

TEST(TopologyGenerators, DeploymentSpecBuildsEveryKindDeterministically) {
  for (TopologyKind kind :
       {TopologyKind::kUniform, TopologyKind::kGrid, TopologyKind::kLine,
        TopologyKind::kClustered, TopologyKind::kCorridor}) {
    SCOPED_TRACE(topology_kind_name(kind));
    DeploymentSpec spec;
    spec.kind = kind;
    spec.num_nodes = 24;
    util::Rng a{5};
    util::Rng b{5};
    const Topology ta = spec.build(a);
    const Topology tb = spec.build(b);
    ASSERT_EQ(ta.num_nodes(), 24u);
    for (NodeId n = 0; n < 24; ++n) EXPECT_EQ(ta.position(n), tb.position(n));
    // The root point is inside the deployed region and nearest() resolves.
    EXPECT_NE(ta.nearest(spec.centre()), kNoNode);
  }
}

TEST(TopologyGenerators, LineSpecSpansTheArea) {
  DeploymentSpec spec;
  spec.kind = TopologyKind::kLine;
  spec.num_nodes = 11;
  spec.area_m = 500.0;
  util::Rng rng{1};
  const Topology t = spec.build(rng);
  EXPECT_DOUBLE_EQ(t.position(0).x, 0.0);
  EXPECT_DOUBLE_EQ(t.position(10).x, 500.0);
  EXPECT_TRUE(t.connected());  // 50 m spacing << 125 m range
}

TEST(TopologyKindNames, RoundTripAndFailLoudly) {
  EXPECT_STREQ(topology_kind_name(TopologyKind::kUniform), "uniform");
  EXPECT_STREQ(topology_kind_name(TopologyKind::kGrid), "grid");
  EXPECT_STREQ(topology_kind_name(TopologyKind::kLine), "line");
  EXPECT_STREQ(topology_kind_name(TopologyKind::kClustered), "clustered");
  EXPECT_STREQ(topology_kind_name(TopologyKind::kCorridor), "corridor");
  EXPECT_THROW(topology_kind_name(static_cast<TopologyKind>(99)),
               std::invalid_argument);
}

}  // namespace
}  // namespace essat::net
