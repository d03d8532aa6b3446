#include "src/routing/tree.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/routing/parent_policy.h"
#include "src/snap/serializer.h"

namespace essat::routing {

Tree::Tree(std::size_t num_nodes)
    : Tree{util::SlotIndex::all(num_nodes)} {}

Tree::Tree(std::shared_ptr<const util::SlotIndex> roster)
    : roster_{std::move(roster)}, nodes_(roster_->size()) {}

const Tree::Node Tree::kOutsider{};

Tree::Node& Tree::node_(net::NodeId n) {
  const util::SlotIndex::Slot s = roster_->slot(n);
  if (s == util::SlotIndex::kNoSlot) {
    throw std::logic_error{"Tree: node outside the roster"};
  }
  return nodes_[static_cast<std::size_t>(s)];
}

void Tree::set_root(net::NodeId root) {
  if (root_ != net::kNoNode) throw std::logic_error{"Tree: root already set"};
  Node& r = node_(root);
  root_ = root;
  r.member = true;
  r.level = 0;
  r.rank = 0;
  max_rank_ = kStale;
}

int Tree::max_rank() const {
  if (max_rank_ == kStale) {
    int m = 0;
    for (const Node& node : nodes_) {
      if (node.member) m = std::max(m, node.rank);
    }
    max_rank_ = m;
  }
  return max_rank_;
}

std::vector<net::NodeId> Tree::members() const {
  std::vector<net::NodeId> out;
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    if (nodes_[s].member) {
      out.push_back(roster_->id(static_cast<util::SlotIndex::Slot>(s)));
    }
  }
  return out;
}

std::size_t Tree::member_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const Node& node) { return node.member; }));
}

void Tree::add_node(net::NodeId n, net::NodeId parent) {
  if (!is_member(parent)) throw std::logic_error{"Tree::add_node: parent not a member"};
  if (is_member(n)) throw std::logic_error{"Tree::add_node: node already a member"};
  Node& child = node_(n);
  Node& p = node_(parent);
  child.member = true;
  child.parent = parent;
  p.children.push_back(n);
  child.level = p.level + 1;
  child.rank = 0;
  max_rank_ = kStale;
}

void Tree::change_parent(net::NodeId n, net::NodeId new_parent) {
  if (!is_member(n) || !is_member(new_parent)) {
    throw std::logic_error{"Tree::change_parent: both nodes must be members"};
  }
  if (in_subtree(n, new_parent)) {
    throw std::logic_error{"Tree::change_parent: new parent is a descendant"};
  }
  Node& moved = node_(n);
  if (moved.parent != net::kNoNode) {
    auto& siblings = node_(moved.parent).children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), n), siblings.end());
  }
  Node& p = node_(new_parent);
  moved.parent = new_parent;
  p.children.push_back(n);
  // Relevel the moved subtree.
  std::queue<net::NodeId> q;
  moved.level = p.level + 1;
  q.push(n);
  while (!q.empty()) {
    const Node& u = node_(q.front());
    q.pop();
    for (net::NodeId c : u.children) {
      node_(c).level = u.level + 1;
      q.push(c);
    }
  }
}

std::vector<net::NodeId> Tree::remove_node(net::NodeId n) {
  if (!is_member(n)) throw std::logic_error{"Tree::remove_node: not a member"};
  if (n == root_) throw std::logic_error{"Tree::remove_node: cannot remove root"};
  Node& removed = node_(n);
  if (removed.parent != net::kNoNode) {
    auto& siblings = node_(removed.parent).children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), n), siblings.end());
  }
  const auto reset = [](Node& node) {
    node.member = false;
    node.parent = net::kNoNode;
    node.children.clear();
    node.level = -1;
    node.rank = -1;
  };
  // Orphan the whole subtree: descendants lose membership too (they must
  // rejoin through repair).
  std::vector<net::NodeId> orphans;
  std::queue<net::NodeId> q;
  for (net::NodeId c : removed.children) q.push(c);
  while (!q.empty()) {
    const net::NodeId u = q.front();
    q.pop();
    orphans.push_back(u);
    Node& orphan = node_(u);
    for (net::NodeId c : orphan.children) q.push(c);
    reset(orphan);
  }
  reset(removed);
  max_rank_ = kStale;
  return orphans;
}

int Tree::compute_rank_(net::NodeId n) {
  Node& node = node_(n);
  int r = 0;
  for (net::NodeId c : node.children) {
    r = std::max(r, compute_rank_(c) + 1);
  }
  node.rank = r;
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
    u = parent(u);
  }
  return false;
}

std::shared_ptr<const util::SlotIndex> tree_roster(const net::Topology& topo,
                                                   net::NodeId root,
                                                   double max_dist_from_root) {
  auto roster = std::make_shared<util::SlotIndex>(topo.num_nodes());
  const net::Position root_pos = topo.position(root);
  roster->add(root);
  // Until sort(), ids() is the breadth-first queue.
  for (std::size_t next = 0; next < roster->size(); ++next) {
    const net::NodeId u = roster->id(static_cast<util::SlotIndex::Slot>(next));
    for (net::NodeId v : topo.neighbors(u)) {
      if (roster->contains(v)) continue;
      if (net::distance(topo.position(v), root_pos) > max_dist_from_root) {
        continue;
      }
      roster->add(v);
    }
  }
  roster->sort();
  return roster;
}

Tree build_bfs_tree(const net::Topology& topo, net::NodeId root,
                    double max_dist_from_root) {
  Tree tree{tree_roster(topo, root, max_dist_from_root)};
  const util::SlotIndex& roster = tree.roster();
  tree.set_root(root);

  std::queue<net::NodeId> frontier;
  frontier.push(root);
  while (!frontier.empty()) {
    const net::NodeId u = frontier.front();
    frontier.pop();
    // Deterministic child order: ascending node id (the topology's order).
    for (net::NodeId v : topo.neighbors(u)) {
      if (!roster.contains(v) || tree.is_member(v)) continue;
      tree.add_node(v, u);
      frontier.push(v);
    }
  }
  tree.recompute_ranks();
  return tree;
}

Tree build_policy_tree(const net::Topology& topo, net::NodeId root,
                       double max_dist_from_root, ParentPolicy* policy) {
  return build_policy_tree(topo, tree_roster(topo, root, max_dist_from_root),
                           root, policy);
}

Tree build_policy_tree(const net::Topology& topo,
                       std::shared_ptr<const util::SlotIndex> roster,
                       net::NodeId root, ParentPolicy* policy) {
  if (policy == nullptr) {
    throw std::invalid_argument{"build_policy_tree: null ParentPolicy"};
  }

  // Scratch by roster slot. Every in-range node within the distance cap
  // that the search can reach is in the roster, so a neighbour outside it
  // is one the cap excludes.
  const util::SlotIndex& index = *roster;
  const std::size_t m = index.size();
  std::vector<double> cost(m, std::numeric_limits<double>::infinity());
  std::vector<net::NodeId> parent(m, net::kNoNode);
  std::vector<char> settled(m, 0);
  const auto slot = [&index](net::NodeId id) {
    return static_cast<std::size_t>(index.slot(id));
  };

  // Min-heap over (cost, push sequence): the sequence makes the pop order
  // FIFO-stable among equal costs, which is what makes unit costs settle
  // nodes in exactly build_bfs_tree's frontier order.
  using Entry = std::tuple<double, std::uint64_t, net::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  std::uint64_t next_seq = 0;

  cost[slot(root)] = 0.0;
  heap.emplace(0.0, next_seq++, root);

  std::vector<net::NodeId> settle_order;
  while (!heap.empty()) {
    const auto [c, seq, u] = heap.top();
    heap.pop();
    const std::size_t su = slot(u);
    if (settled[su] || c != cost[su]) continue;  // stale entry
    settled[su] = 1;
    if (u != root) settle_order.push_back(u);

    for (net::NodeId v : topo.neighbors(u)) {
      if (!index.contains(v)) continue;
      const std::size_t sv = slot(v);
      if (settled[sv]) continue;
      const double offer = c + policy->link_cost(v, u);
      if (offer < cost[sv]) {
        cost[sv] = offer;
        parent[sv] = u;
        heap.emplace(offer, next_seq++, v);
      }
    }
  }

  // A node always settles after its final parent, so inserting in settle
  // order keeps add_node's parent-is-a-member invariant.
  Tree tree{std::move(roster)};
  tree.set_root(root);
  for (net::NodeId u : settle_order) tree.add_node(u, parent[slot(u)]);
  tree.recompute_ranks();
  return tree;
}

void Tree::save_state(snap::Serializer& out) const {
  out.begin("TREE");
  out.i32(root_);
  out.u64(roster_->universe());
  out.u64(nodes_.size());
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    const Node& node = nodes_[s];
    out.i32(roster_->id(static_cast<util::SlotIndex::Slot>(s)));
    out.i32(node.parent);
    out.i32(node.level);
    out.i32(node.rank);
    out.boolean(node.member);
    out.u64(node.children.size());
    for (net::NodeId c : node.children) out.i32(c);
  }
  out.end();
}

}  // namespace essat::routing
