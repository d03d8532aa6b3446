// Seed-swept structural invariants of the routing tree on the paper's
// deployment (80 nodes, 500x500 m^2, 125 m range, 300 m tree span).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "src/routing/tree.h"

namespace essat::routing {
namespace {

class TreeSeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    util::Rng rng{GetParam()};
    topo_ = std::make_unique<net::Topology>(
        net::Topology::uniform_random(80, 500.0, 125.0, rng));
    root_ = topo_->nearest({250.0, 250.0});
    tree_ = std::make_unique<Tree>(build_bfs_tree(*topo_, root_, 300.0));
  }

  std::unique_ptr<net::Topology> topo_;
  net::NodeId root_ = net::kNoNode;
  std::unique_ptr<Tree> tree_;
};

INSTANTIATE_TEST_SUITE_P(Seeds, TreeSeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST_P(TreeSeedSweep, EveryEdgeIsWithinRadioRange) {
  for (net::NodeId n : tree_->members()) {
    if (n == root_) continue;
    EXPECT_TRUE(topo_->in_range(n, tree_->parent(n))) << "node " << n;
  }
}

TEST_P(TreeSeedSweep, MembersRespectTreeSpan) {
  const auto root_pos = topo_->position(root_);
  for (net::NodeId n : tree_->members()) {
    EXPECT_LE(net::distance(topo_->position(n), root_pos), 300.0 + 1e-9);
  }
}

TEST_P(TreeSeedSweep, LevelsAreMinHop) {
  // BFS over the membership-restricted graph must not find shorter paths.
  std::vector<int> dist(topo_->num_nodes(), -1);
  std::queue<net::NodeId> q;
  dist[static_cast<std::size_t>(root_)] = 0;
  q.push(root_);
  while (!q.empty()) {
    const net::NodeId u = q.front();
    q.pop();
    for (net::NodeId v : topo_->neighbors(u)) {
      if (!tree_->is_member(v) || dist[static_cast<std::size_t>(v)] != -1) continue;
      dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
      q.push(v);
    }
  }
  for (net::NodeId n : tree_->members()) {
    EXPECT_EQ(tree_->level(n), dist[static_cast<std::size_t>(n)]) << "node " << n;
  }
}

TEST_P(TreeSeedSweep, RanksSatisfyRecurrence) {
  for (net::NodeId n : tree_->members()) {
    int expected = 0;
    for (net::NodeId c : tree_->children(n)) {
      expected = std::max(expected, tree_->rank(c) + 1);
    }
    EXPECT_EQ(tree_->rank(n), expected);
  }
  EXPECT_EQ(tree_->max_rank(), tree_->rank(root_));
}

TEST_P(TreeSeedSweep, ChildrenListsAreConsistent) {
  std::size_t edges = 0;
  for (net::NodeId n : tree_->members()) {
    for (net::NodeId c : tree_->children(n)) {
      EXPECT_EQ(tree_->parent(c), n);
      EXPECT_EQ(tree_->level(c), tree_->level(n) + 1);
      ++edges;
    }
  }
  // A tree has exactly members-1 edges.
  EXPECT_EQ(edges, tree_->member_count() - 1);
}

TEST_P(TreeSeedSweep, EveryMemberReachesRoot) {
  for (net::NodeId n : tree_->members()) {
    EXPECT_TRUE(tree_->in_subtree(root_, n));
  }
}

TEST_P(TreeSeedSweep, RepeatedRankRecomputeIsIdempotent) {
  std::vector<int> before;
  for (net::NodeId n : tree_->members()) before.push_back(tree_->rank(n));
  tree_->recompute_ranks();
  std::vector<int> after;
  for (net::NodeId n : tree_->members()) after.push_back(tree_->rank(n));
  EXPECT_EQ(before, after);
}

// max_rank() is cached; after every kind of edit it must still equal a
// scan of the members' ranks, stale ranks between recomputes included.
TEST_P(TreeSeedSweep, CachedMaxRankMatchesScanUnderRandomEdits) {
  // The BFS tree admits only its roster; copy its shape into a tree every
  // node may join, so an edit can add any node that is not a member.
  std::vector<net::NodeId> by_level = tree_->members();
  std::stable_sort(by_level.begin(), by_level.end(),
                   [this](net::NodeId a, net::NodeId b) {
                     return tree_->level(a) < tree_->level(b);
                   });
  Tree open{topo_->num_nodes()};
  open.set_root(root_);
  for (net::NodeId n : by_level) {
    if (n != root_) open.add_node(n, tree_->parent(n));
  }
  open.recompute_ranks();
  *tree_ = std::move(open);
  const auto scan = [this] {
    int m = 0;
    for (net::NodeId n : tree_->members()) m = std::max(m, tree_->rank(n));
    return m;
  };
  util::Rng rng{GetParam() + 100};
  const auto pick = [&rng](const std::vector<net::NodeId>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  for (int step = 0; step < 400; ++step) {
    (void)tree_->max_rank();  // fill the cache before the edit
    std::vector<net::NodeId> members = tree_->members();
    std::vector<net::NodeId> outside;
    for (std::size_t i = 0; i < tree_->num_nodes(); ++i) {
      if (!tree_->is_member(static_cast<net::NodeId>(i))) {
        outside.push_back(static_cast<net::NodeId>(i));
      }
    }
    members.erase(std::find(members.begin(), members.end(), root_));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        if (!outside.empty()) tree_->add_node(pick(outside), pick(tree_->members()));
        break;
      case 1:
        if (!members.empty()) {
          const net::NodeId n = pick(members);
          const net::NodeId p = pick(tree_->members());
          if (!tree_->in_subtree(n, p)) tree_->change_parent(n, p);
        }
        break;
      case 2:
        if (!members.empty()) tree_->remove_node(pick(members));
        break;
      default:
        tree_->recompute_ranks();
        break;
    }
    ASSERT_EQ(tree_->max_rank(), scan()) << "step " << step;
  }
}

}  // namespace
}  // namespace essat::routing
