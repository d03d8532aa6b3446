// Routing tree for the query service (§3): rooted at the base station,
// min-hop levels, per-node rank.
//
// Definitions from the paper:
//  * level  — hop count from the root (used by setup: "selects the node with
//    the lowest level as its parent").
//  * rank d — maximum hop count to any descendant; a leaf has rank 0
//    (§4.2.1). STS allocates its local deadline l = D/M per rank, where
//    M is the maximum rank of the tree.
//
// Storage: a tree holds its per-node arrays for a roster only, the nodes
// that may ever join it, through a shared util::SlotIndex. The harness's
// roster is the t = 0 tree's members (tree_roster), since repair only
// re-attaches former members; a node outside it reads as a non-member
// with no parent, no children, level -1 and rank -1.
#pragma once

#include <memory>
#include <vector>

#include "src/net/topology.h"
#include "src/net/types.h"
#include "src/util/slot_index.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::routing {

class Tree {
 public:
  // Every node of [0, num_nodes) may join (hand-built trees).
  explicit Tree(std::size_t num_nodes);
  // Only the roster's nodes may join.
  explicit Tree(std::shared_ptr<const util::SlotIndex> roster);

  net::NodeId root() const { return root_; }
  void set_root(net::NodeId root);

  bool is_member(net::NodeId n) const { return at_(n).member; }
  net::NodeId parent(net::NodeId n) const { return at_(n).parent; }
  const std::vector<net::NodeId>& children(net::NodeId n) const {
    return at_(n).children;
  }
  int level(net::NodeId n) const { return at_(n).level; }
  int rank(net::NodeId n) const { return at_(n).rank; }
  bool is_leaf(net::NodeId n) const {
    return is_member(n) && children(n).empty();
  }
  // Maximum rank M (= rank of the root for a connected tree). Cached: the
  // shapers read it per report, and a scan covers every roster node.
  int max_rank() const;

  // The id range [0, num_nodes()) the roster is drawn from.
  std::size_t num_nodes() const { return roster_->universe(); }
  const util::SlotIndex& roster() const { return *roster_; }
  // In ascending id order.
  std::vector<net::NodeId> members() const;
  std::size_t member_count() const;

  // --- Mutation (central build, repair) ---------------------------------
  // Adds `n` under `parent` (parent must be a member; `n` must not be).
  void add_node(net::NodeId n, net::NodeId parent);
  // Detaches `n` and re-attaches it (with its whole subtree) under
  // `new_parent`. Levels of the moved subtree are updated.
  void change_parent(net::NodeId n, net::NodeId new_parent);
  // Removes a single failed node. Its children become orphans (non-members)
  // and are returned; the caller re-attaches or drops them.
  std::vector<net::NodeId> remove_node(net::NodeId n);
  // Recomputes every member's rank from the leaves up. Must be called after
  // structural changes (the query service owns this, §4.3 "the query service
  // or routing protocol is responsible for reconfiguring the routing tree").
  void recompute_ranks();
  // True if `descendant` lies in the subtree rooted at `ancestor`.
  bool in_subtree(net::NodeId ancestor, net::NodeId descendant) const;

  // Snapshot hook: the full structure including child-list order (repair
  // and pass-through traversal depend on it), one entry per roster slot.
  void save_state(snap::Serializer& out) const;

 private:
  struct Node {
    net::NodeId parent = net::kNoNode;
    int level = -1;
    int rank = -1;
    bool member = false;
    std::vector<net::NodeId> children;
  };

  // What a node outside the roster reads as.
  static const Node kOutsider;

  const Node& at_(net::NodeId n) const {
    const util::SlotIndex::Slot s = roster_->slot(n);
    return s == util::SlotIndex::kNoSlot ? kOutsider
                                         : nodes_[static_cast<std::size_t>(s)];
  }
  // `n`'s entry for writing; throws std::logic_error outside the roster.
  Node& node_(net::NodeId n);
  int compute_rank_(net::NodeId n);

  static constexpr int kStale = -1;  // max_rank_ needs a scan

  std::shared_ptr<const util::SlotIndex> roster_;
  net::NodeId root_ = net::kNoNode;
  std::vector<Node> nodes_;  // by roster slot
  // max_rank() as of the last write to a rank or member flag, or kStale.
  mutable int max_rank_ = kStale;
};

// The nodes within `max_dist_from_root` metres of the root that in-range
// hops through such nodes connect to it, in ascending id order: the
// members of every tree the builders below grow from `root` (the paper's
// tree "spans all nodes located within 300 m from the root" and "is setup
// before the start of the experiments"). A breadth-first pass that visits
// only those nodes and their neighbours; the index's own table is its
// visited set.
std::shared_ptr<const util::SlotIndex> tree_roster(const net::Topology& topo,
                                                   net::NodeId root,
                                                   double max_dist_from_root);

// BFS min-hop tree from `root` over tree_roster(topo, root,
// max_dist_from_root). Ties between candidate parents break toward the
// lower node id, keeping runs reproducible. Tests use it as the reference
// for build_policy_tree under MinHopPolicy.
Tree build_bfs_tree(const net::Topology& topo, net::NodeId root,
                    double max_dist_from_root);

class ParentPolicy;

// Central construction, as the harness runs it: a shortest-path (Dijkstra)
// tree over the policy's link costs, with FIFO-stable tie-breaking and
// ascending-id neighbor expansion so that unit costs (MinHopPolicy)
// reproduce build_bfs_tree exactly — structure, child order and all. The
// search runs over `roster` (from tree_roster) and keeps its scratch by
// roster slot. Throws std::invalid_argument on a null policy.
Tree build_policy_tree(const net::Topology& topo,
                       std::shared_ptr<const util::SlotIndex> roster,
                       net::NodeId root, ParentPolicy* policy);
// The same over tree_roster(topo, root, max_dist_from_root).
Tree build_policy_tree(const net::Topology& topo, net::NodeId root,
                       double max_dist_from_root, ParentPolicy* policy);

}  // namespace essat::routing
