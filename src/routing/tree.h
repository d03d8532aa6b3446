// Routing tree for the query service (§3): rooted at the base station,
// min-hop levels, per-node rank.
//
// Definitions from the paper:
//  * level  — hop count from the root (used by setup: "selects the node with
//    the lowest level as its parent").
//  * rank d — maximum hop count to any descendant; a leaf has rank 0
//    (§4.2.1). STS allocates its local deadline l = D/M per rank, where
//    M is the maximum rank of the tree.
#pragma once

#include <vector>

#include "src/net/topology.h"
#include "src/net/types.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::routing {

class Tree {
 public:
  explicit Tree(std::size_t num_nodes);

  net::NodeId root() const { return root_; }
  void set_root(net::NodeId root);

  bool is_member(net::NodeId n) const { return member_.at(idx(n)); }
  net::NodeId parent(net::NodeId n) const { return parent_.at(idx(n)); }
  const std::vector<net::NodeId>& children(net::NodeId n) const {
    return children_.at(idx(n));
  }
  int level(net::NodeId n) const { return level_.at(idx(n)); }
  int rank(net::NodeId n) const { return rank_.at(idx(n)); }
  bool is_leaf(net::NodeId n) const {
    return is_member(n) && children_.at(idx(n)).empty();
  }
  // Maximum rank M (= rank of the root for a connected tree). Cached: the
  // shapers read it per report, and a scan covers every node.
  int max_rank() const;

  std::size_t num_nodes() const { return parent_.size(); }
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
  // and pass-through traversal depend on it).
  void save_state(snap::Serializer& out) const;

 private:
  static std::size_t idx(net::NodeId n) { return static_cast<std::size_t>(n); }
  int compute_rank_(net::NodeId n);

  static constexpr int kStale = -1;  // max_rank_ needs a scan

  net::NodeId root_ = net::kNoNode;
  std::vector<net::NodeId> parent_;
  std::vector<std::vector<net::NodeId>> children_;
  std::vector<int> level_;
  std::vector<int> rank_;
  std::vector<bool> member_;
  // max_rank() as of the last write to rank_ or member_, or kStale.
  mutable int max_rank_ = kStale;
};

// BFS min-hop tree from `root` over nodes within `max_dist_from_root`
// metres of the root (the paper's tree "spans all nodes located within
// 300 m from the root" and "is setup before the start of the
// experiments"). Ties between candidate parents break toward the lower
// node id, keeping runs reproducible. Tests use it as the reference for
// build_policy_tree under MinHopPolicy.
Tree build_bfs_tree(const net::Topology& topo, net::NodeId root,
                    double max_dist_from_root);

class ParentPolicy;

// Central construction, as the harness runs it: a shortest-path (Dijkstra)
// tree over the policy's link costs, with FIFO-stable tie-breaking and
// ascending-id neighbor expansion so that unit costs (MinHopPolicy)
// reproduce build_bfs_tree exactly — structure, child order and all.
// Throws std::invalid_argument on a null policy.
Tree build_policy_tree(const net::Topology& topo, net::NodeId root,
                       double max_dist_from_root, ParentPolicy* policy);

}  // namespace essat::routing
