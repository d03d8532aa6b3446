#include <gtest/gtest.h>

#include "src/routing/parent_policy.h"
#include "src/routing/tree.h"

namespace essat::routing {
namespace {

// Chain: 0 - 1 - 2 - 3 - 4 (100 m spacing, 125 m range).
net::Topology chain() { return net::Topology::line(5, 100.0, 125.0); }

TEST(Tree, BfsChainLevelsAndRanks) {
  const Tree t = build_bfs_tree(chain(), 0, 1000.0);
  EXPECT_EQ(t.root(), 0);
  for (net::NodeId n = 0; n < 5; ++n) {
    EXPECT_TRUE(t.is_member(n));
    EXPECT_EQ(t.level(n), n);
  }
  // Rank = max hop count to any descendant; on a chain rank(n) = 4 - n.
  for (net::NodeId n = 0; n < 5; ++n) EXPECT_EQ(t.rank(n), 4 - n);
  EXPECT_EQ(t.max_rank(), 4);
  EXPECT_TRUE(t.is_leaf(4));
  EXPECT_FALSE(t.is_leaf(0));
}

TEST(Tree, BfsRespectsDistanceLimit) {
  // 300 m from node 0 excludes nodes at 400 m.
  const Tree t = build_bfs_tree(chain(), 0, 300.0);
  EXPECT_TRUE(t.is_member(3));   // at 300 m exactly
  EXPECT_FALSE(t.is_member(4));  // at 400 m
  EXPECT_EQ(t.member_count(), 4u);
}

TEST(Tree, BfsMinHopLevels) {
  // Star-ish: root 0 in the middle of a grid; levels must equal hop counts.
  const net::Topology topo = net::Topology::grid(5, 100.0, 125.0);
  const net::NodeId root = topo.nearest({200.0, 200.0});
  const Tree t = build_bfs_tree(topo, root, 10000.0);
  for (net::NodeId n : t.members()) {
    if (n == root) continue;
    EXPECT_EQ(t.level(n), t.level(t.parent(n)) + 1);
    EXPECT_TRUE(topo.in_range(n, t.parent(n)));
  }
  // Corner of the 5x5 grid is 4 axis-hops from the centre.
  EXPECT_EQ(t.level(0), 4);
}

TEST(Tree, ParentChildConsistency) {
  const Tree t = build_bfs_tree(chain(), 0, 1000.0);
  for (net::NodeId n : t.members()) {
    for (net::NodeId c : t.children(n)) {
      EXPECT_EQ(t.parent(c), n);
    }
  }
  EXPECT_EQ(t.parent(0), net::kNoNode);
}

TEST(Tree, AddNodeValidation) {
  Tree t{4};
  t.set_root(0);
  t.add_node(1, 0);
  EXPECT_THROW(t.add_node(2, 3), std::logic_error);  // parent not a member
  EXPECT_THROW(t.add_node(1, 0), std::logic_error);  // already a member
  EXPECT_EQ(t.level(1), 1);
}

TEST(Tree, SetRootTwiceThrows) {
  Tree t{2};
  t.set_root(0);
  EXPECT_THROW(t.set_root(1), std::logic_error);
}

TEST(Tree, InSubtree) {
  const Tree t = build_bfs_tree(chain(), 0, 1000.0);
  EXPECT_TRUE(t.in_subtree(1, 3));
  EXPECT_TRUE(t.in_subtree(2, 2));
  EXPECT_FALSE(t.in_subtree(3, 1));
}

TEST(Tree, ChangeParentRelevelsSubtree) {
  // Y topology: 0 at origin; 1 and 2 both adjacent to 0; 3 under 1 but also
  // adjacent to 2.
  net::Topology topo{{{0, 0}, {100, 0}, {0, 100}, {100, 100}}, 125.0};
  Tree t{4};
  t.set_root(0);
  t.add_node(1, 0);
  t.add_node(2, 0);
  t.add_node(3, 1);
  t.recompute_ranks();
  EXPECT_EQ(t.rank(1), 1);
  EXPECT_EQ(t.rank(2), 0);

  t.change_parent(3, 2);
  t.recompute_ranks();
  EXPECT_EQ(t.parent(3), 2);
  EXPECT_EQ(t.level(3), 2);
  EXPECT_EQ(t.rank(1), 0);  // lost its only child
  EXPECT_EQ(t.rank(2), 1);
  EXPECT_TRUE(t.is_leaf(1));
}

TEST(Tree, ChangeParentRejectsDescendant) {
  Tree t{3};
  t.set_root(0);
  t.add_node(1, 0);
  t.add_node(2, 1);
  EXPECT_THROW(t.change_parent(1, 2), std::logic_error);  // 2 is below 1
}

TEST(Tree, RemoveNodeOrphansSubtree) {
  const net::Topology topo = chain();
  Tree t = build_bfs_tree(topo, 0, 1000.0);
  const auto orphans = t.remove_node(2);
  EXPECT_EQ(orphans, (std::vector<net::NodeId>{3, 4}));
  EXPECT_FALSE(t.is_member(2));
  EXPECT_FALSE(t.is_member(3));
  EXPECT_FALSE(t.is_member(4));
  EXPECT_TRUE(t.is_leaf(1));
  t.recompute_ranks();
  EXPECT_EQ(t.max_rank(), 1);
}

TEST(Tree, RemoveRootThrows) {
  Tree t = build_bfs_tree(chain(), 0, 1000.0);
  EXPECT_THROW(t.remove_node(0), std::logic_error);
}

TEST(Tree, MembersListsExactlyMembers) {
  const Tree t = build_bfs_tree(chain(), 0, 300.0);
  const auto m = t.members();
  EXPECT_EQ(m, (std::vector<net::NodeId>{0, 1, 2, 3}));
}

// The roster is every node within the cap that in-range hops inside the
// cap connect to the root, in ascending id order.
TEST(Tree, RosterIsTheCappedComponent) {
  const net::Topology topo = chain();
  EXPECT_EQ(tree_roster(topo, 0, 300.0)->ids(),
            (std::vector<net::NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(tree_roster(topo, 0, 250.0)->ids(),
            (std::vector<net::NodeId>{0, 1, 2}));
  // Mid-chain root: slots follow ascending ids.
  const auto roster = tree_roster(topo, 2, 100.0);
  EXPECT_EQ(roster->ids(), (std::vector<net::NodeId>{1, 2, 3}));
  EXPECT_EQ(roster->slot(1), 0);
  EXPECT_EQ(roster->slot(3), 2);
  EXPECT_EQ(roster->slot(4), util::SlotIndex::kNoSlot);
  EXPECT_EQ(roster->universe(), 5u);
}

// A node outside the roster reads as a non-member and can never join.
TEST(Tree, OutsideTheRosterIsNeverAMember) {
  Tree t = build_bfs_tree(chain(), 0, 300.0);
  EXPECT_EQ(t.num_nodes(), 5u);
  EXPECT_EQ(t.roster().size(), 4u);
  EXPECT_FALSE(t.is_member(4));
  EXPECT_EQ(t.parent(4), net::kNoNode);
  EXPECT_TRUE(t.children(4).empty());
  EXPECT_EQ(t.level(4), -1);
  EXPECT_EQ(t.rank(4), -1);
  EXPECT_FALSE(t.is_leaf(4));
  EXPECT_THROW(t.add_node(4, 3), std::logic_error);
  // A removed roster node may rejoin.
  t.remove_node(3);
  t.add_node(3, 2);
  EXPECT_EQ(t.level(3), 3);
}

// Any parent policy grows the roster's tree: the Dijkstra search visits the
// same nodes as the breadth-first one.
TEST(Tree, PolicyTreeMembersAreTheRoster) {
  util::Rng rng{23};
  const auto topo = net::Topology::uniform_random(200, 900.0, 125.0, rng);
  const net::NodeId root = topo.nearest({450, 450});
  MinHopPolicy policy;
  const Tree t = build_policy_tree(topo, root, 300.0, &policy);
  EXPECT_EQ(t.members(), tree_roster(topo, root, 300.0)->ids());
  EXPECT_LT(t.member_count(), 200u);
}

TEST(Tree, RanksAfterRecomputeMatchDefinition) {
  util::Rng rng{17};
  const auto topo = net::Topology::uniform_random(60, 500.0, 125.0, rng);
  const net::NodeId root = topo.nearest({250, 250});
  Tree t = build_bfs_tree(topo, root, 300.0);
  // Verify rank(n) == 1 + max(rank(children)) with leaves at 0.
  for (net::NodeId n : t.members()) {
    int expect = 0;
    for (net::NodeId c : t.children(n)) expect = std::max(expect, t.rank(c) + 1);
    EXPECT_EQ(t.rank(n), expect);
  }
  EXPECT_EQ(t.max_rank(), t.rank(root));
}

}  // namespace
}  // namespace essat::routing
