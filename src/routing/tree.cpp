#include "src/routing/tree.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>

#include "src/routing/parent_policy.h"
#include "src/snap/serializer.h"

namespace essat::routing {

Tree::Tree(std::size_t num_nodes)
    : parent_(num_nodes, net::kNoNode),
      children_(num_nodes),
      level_(num_nodes, -1),
      rank_(num_nodes, -1),
      member_(num_nodes, false) {}

void Tree::set_root(net::NodeId root) {
  if (root_ != net::kNoNode) throw std::logic_error{"Tree: root already set"};
  root_ = root;
  member_.at(idx(root)) = true;
  level_.at(idx(root)) = 0;
  rank_.at(idx(root)) = 0;
  max_rank_ = kStale;
}

int Tree::max_rank() const {
  if (max_rank_ == kStale) {
    int m = 0;
    for (std::size_t i = 0; i < rank_.size(); ++i) {
      if (member_[i]) m = std::max(m, rank_[i]);
    }
    max_rank_ = m;
  }
  return max_rank_;
}

std::vector<net::NodeId> Tree::members() const {
  std::vector<net::NodeId> out;
  for (std::size_t i = 0; i < member_.size(); ++i) {
    if (member_[i]) out.push_back(static_cast<net::NodeId>(i));
  }
  return out;
}

std::size_t Tree::member_count() const {
  return static_cast<std::size_t>(
      std::count(member_.begin(), member_.end(), true));
}

void Tree::add_node(net::NodeId n, net::NodeId parent) {
  if (!is_member(parent)) throw std::logic_error{"Tree::add_node: parent not a member"};
  if (is_member(n)) throw std::logic_error{"Tree::add_node: node already a member"};
  member_.at(idx(n)) = true;
  parent_.at(idx(n)) = parent;
  children_.at(idx(parent)).push_back(n);
  level_.at(idx(n)) = level_.at(idx(parent)) + 1;
  rank_.at(idx(n)) = 0;
  max_rank_ = kStale;
}

void Tree::change_parent(net::NodeId n, net::NodeId new_parent) {
  if (!is_member(n) || !is_member(new_parent)) {
    throw std::logic_error{"Tree::change_parent: both nodes must be members"};
  }
  if (in_subtree(n, new_parent)) {
    throw std::logic_error{"Tree::change_parent: new parent is a descendant"};
  }
  const net::NodeId old_parent = parent_.at(idx(n));
  if (old_parent != net::kNoNode) {
    auto& siblings = children_.at(idx(old_parent));
    siblings.erase(std::remove(siblings.begin(), siblings.end(), n), siblings.end());
  }
  parent_.at(idx(n)) = new_parent;
  children_.at(idx(new_parent)).push_back(n);
  // Relevel the moved subtree.
  std::queue<net::NodeId> q;
  level_.at(idx(n)) = level_.at(idx(new_parent)) + 1;
  q.push(n);
  while (!q.empty()) {
    const net::NodeId u = q.front();
    q.pop();
    for (net::NodeId c : children_.at(idx(u))) {
      level_.at(idx(c)) = level_.at(idx(u)) + 1;
      q.push(c);
    }
  }
}

std::vector<net::NodeId> Tree::remove_node(net::NodeId n) {
  if (!is_member(n)) throw std::logic_error{"Tree::remove_node: not a member"};
  if (n == root_) throw std::logic_error{"Tree::remove_node: cannot remove root"};
  const net::NodeId p = parent_.at(idx(n));
  if (p != net::kNoNode) {
    auto& siblings = children_.at(idx(p));
    siblings.erase(std::remove(siblings.begin(), siblings.end(), n), siblings.end());
  }
  // Orphan the whole subtree: descendants lose membership too (they must
  // rejoin through repair).
  std::vector<net::NodeId> orphans;
  std::queue<net::NodeId> q;
  for (net::NodeId c : children_.at(idx(n))) q.push(c);
  while (!q.empty()) {
    const net::NodeId u = q.front();
    q.pop();
    orphans.push_back(u);
    for (net::NodeId c : children_.at(idx(u))) q.push(c);
    member_.at(idx(u)) = false;
    parent_.at(idx(u)) = net::kNoNode;
    children_.at(idx(u)).clear();
    level_.at(idx(u)) = -1;
    rank_.at(idx(u)) = -1;
  }
  member_.at(idx(n)) = false;
  parent_.at(idx(n)) = net::kNoNode;
  children_.at(idx(n)).clear();
  level_.at(idx(n)) = -1;
  rank_.at(idx(n)) = -1;
  max_rank_ = kStale;
  return orphans;
}

int Tree::compute_rank_(net::NodeId n) {
  int r = 0;
  for (net::NodeId c : children_.at(idx(n))) {
    r = std::max(r, compute_rank_(c) + 1);
  }
  rank_.at(idx(n)) = r;
  max_rank_ = kStale;
  return r;
}

void Tree::recompute_ranks() {
  if (root_ == net::kNoNode) return;
  compute_rank_(root_);
}

bool Tree::in_subtree(net::NodeId ancestor, net::NodeId descendant) const {
  net::NodeId u = descendant;
  while (u != net::kNoNode) {
    if (u == ancestor) return true;
    u = parent_.at(idx(u));
  }
  return false;
}

Tree build_bfs_tree(const net::Topology& topo, net::NodeId root,
                    double max_dist_from_root) {
  Tree tree{topo.num_nodes()};
  tree.set_root(root);
  const net::Position root_pos = topo.position(root);

  std::queue<net::NodeId> frontier;
  frontier.push(root);
  while (!frontier.empty()) {
    const net::NodeId u = frontier.front();
    frontier.pop();
    // Deterministic child order: ascending node id (the topology's order).
    for (net::NodeId v : topo.neighbors(u)) {
      if (tree.is_member(v)) continue;
      if (net::distance(topo.position(v), root_pos) > max_dist_from_root) continue;
      tree.add_node(v, u);
      frontier.push(v);
    }
  }
  tree.recompute_ranks();
  return tree;
}

Tree build_policy_tree(const net::Topology& topo, net::NodeId root,
                       double max_dist_from_root, ParentPolicy* policy) {
  if (policy == nullptr) {
    throw std::invalid_argument{"build_policy_tree: null ParentPolicy"};
  }

  const std::size_t n = topo.num_nodes();
  const net::Position root_pos = topo.position(root);
  std::vector<double> cost(n, std::numeric_limits<double>::infinity());
  std::vector<net::NodeId> parent(n, net::kNoNode);
  std::vector<char> settled(n, 0);

  // Min-heap over (cost, push sequence): the sequence makes the pop order
  // FIFO-stable among equal costs, which is what makes unit costs settle
  // nodes in exactly build_bfs_tree's frontier order.
  using Entry = std::tuple<double, std::uint64_t, net::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  std::uint64_t next_seq = 0;

  cost[static_cast<std::size_t>(root)] = 0.0;
  heap.emplace(0.0, next_seq++, root);

  std::vector<net::NodeId> settle_order;
  while (!heap.empty()) {
    const auto [c, seq, u] = heap.top();
    heap.pop();
    auto& done = settled[static_cast<std::size_t>(u)];
    if (done || c != cost[static_cast<std::size_t>(u)]) continue;  // stale entry
    done = 1;
    if (u != root) settle_order.push_back(u);

    for (net::NodeId v : topo.neighbors(u)) {
      if (settled[static_cast<std::size_t>(v)]) continue;
      if (net::distance(topo.position(v), root_pos) > max_dist_from_root) continue;
      const double offer = c + policy->link_cost(v, u);
      if (offer < cost[static_cast<std::size_t>(v)]) {
        cost[static_cast<std::size_t>(v)] = offer;
        parent[static_cast<std::size_t>(v)] = u;
        heap.emplace(offer, next_seq++, v);
      }
    }
  }

  // A node always settles after its final parent, so inserting in settle
  // order keeps add_node's parent-is-a-member invariant.
  Tree tree{n};
  tree.set_root(root);
  for (net::NodeId u : settle_order) {
    tree.add_node(u, parent[static_cast<std::size_t>(u)]);
  }
  tree.recompute_ranks();
  return tree;
}

void Tree::save_state(snap::Serializer& out) const {
  out.begin("TREE");
  out.i32(root_);
  out.u64(parent_.size());
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    out.i32(parent_[i]);
    out.i32(level_[i]);
    out.i32(rank_[i]);
    out.boolean(member_[i]);
    out.u64(children_[i].size());
    for (net::NodeId c : children_[i]) out.i32(c);
  }
  out.end();
}

}  // namespace essat::routing
