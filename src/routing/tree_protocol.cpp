#include "src/routing/tree_protocol.h"

#include <algorithm>
#include <utility>
#include <stdexcept>

#include "src/snap/serializer.h"

namespace essat::routing {

TreeSetupProtocol::TreeSetupProtocol(sim::Simulator& sim, const net::Topology& topo,
                                     net::NodeId root, TreeSetupParams params,
                                     util::Rng&& rng, ParentPolicy& policy)
    : sim_{sim},
      topo_{topo},
      root_{root},
      params_{params},
      rng_{std::move(rng)},
      policy_{policy},
      nodes_(topo.num_nodes()),
      macs_(topo.num_nodes(), nullptr) {
  const net::Position root_pos = topo_.position(root_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].participates =
        net::distance(topo_.position(static_cast<net::NodeId>(i)), root_pos) <=
        params_.max_dist_from_root;
  }
  auto& root_state = nodes_.at(static_cast<std::size_t>(root_));
  root_state.level = 0;
  root_state.cost = 0.0;
}

void TreeSetupProtocol::attach_mac(net::NodeId node, mac::CsmaMac* mac) {
  macs_.at(static_cast<std::size_t>(node)) = mac;
}

void TreeSetupProtocol::start(std::function<void(Tree)> on_complete) {
  auto* root_mac = macs_.at(static_cast<std::size_t>(root_));
  if (root_mac == nullptr) throw std::logic_error{"TreeSetupProtocol: root MAC not attached"};
  root_mac->send(net::make_setup_packet(root_, root_, 0));

  // JOIN phase: every node that found a parent announces itself, jittered to
  // avoid a synchronized burst.
  sim_.schedule_in(params_.join_at, [this] {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const auto n = static_cast<net::NodeId>(i);
      auto& st = nodes_[i];
      if (n == root_ || !st.participates || st.parent == net::kNoNode) continue;
      const util::Time jitter =
          rng_.uniform_time(util::Time::zero(), params_.rebroadcast_jitter * 4);
      sim_.schedule_in(jitter, [this, n, parent = st.parent] {
        macs_.at(static_cast<std::size_t>(n))->send(net::make_join_packet(n, parent));
      });
    }
  });

  sim_.schedule_in(params_.finalize_after,
                   [this, cb = std::move(on_complete)] { cb(assemble_()); });
}

void TreeSetupProtocol::handle_packet(net::NodeId self, const net::Packet& p) {
  auto& st = nodes_.at(static_cast<std::size_t>(self));
  switch (p.type) {
    case net::PacketType::kSetup: {
      if (self == root_ || !st.participates) return;
      const int offered_level = p.setup().level + 1;
      // The sender advertises its path cost; adopt when the resulting cost
      // strictly beats the current one, so the first sender heard keeps
      // ties (min-hop costs make this "lowest level wins").
      const double offered_cost =
          p.setup().cost + policy_.link_cost(self, p.link_src);
      if (st.parent == net::kNoNode || offered_cost < st.cost) {
        ESSAT_TRACE(sim_, obs::TraceType::kParentChange, self, 0,
                    static_cast<std::uint64_t>(st.parent),
                    static_cast<std::uint64_t>(p.link_src));
        st.cost = offered_cost;
        st.level = offered_level;
        st.parent = p.link_src;
        schedule_rebroadcast_(self);
      }
      return;
    }
    case net::PacketType::kJoin:
      ++joins_received_;
      return;
    default:
      return;
  }
}

void TreeSetupProtocol::schedule_rebroadcast_(net::NodeId n) {
  auto& st = nodes_.at(static_cast<std::size_t>(n));
  if (st.rebroadcast_pending || st.rebroadcasts >= params_.max_rebroadcasts) return;
  st.rebroadcast_pending = true;
  const util::Time jitter =
      rng_.uniform_time(util::Time::microseconds(100), params_.rebroadcast_jitter);
  sim_.schedule_in(jitter, [this, n] {
    auto& s = nodes_.at(static_cast<std::size_t>(n));
    s.rebroadcast_pending = false;
    ++s.rebroadcasts;
    macs_.at(static_cast<std::size_t>(n))
        ->send(net::make_setup_packet(n, root_, s.level, s.cost));
  });
}

Tree TreeSetupProtocol::assemble_() const {
  Tree tree{topo_.num_nodes()};
  tree.set_root(root_);
  // Insert members in ascending level order so parents precede children.
  std::vector<net::NodeId> order;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto n = static_cast<net::NodeId>(i);
    if (n != root_ && nodes_[i].participates && nodes_[i].parent != net::kNoNode) {
      order.push_back(n);
    }
  }
  std::sort(order.begin(), order.end(), [this](net::NodeId a, net::NodeId b) {
    const int la = nodes_[static_cast<std::size_t>(a)].level;
    const int lb = nodes_[static_cast<std::size_t>(b)].level;
    return la != lb ? la < lb : a < b;
  });
  // Under the min-hop rule levels only ever decrease, so one pass
  // in level order inserts every member. A cost-based policy can adopt a
  // *higher*-level parent, leaving stale child levels that break the
  // parent-first ordering — keep sweeping until a fixpoint. With positive
  // link costs a parent cycle cannot form (every adoption strictly lowers
  // the adopter's cost, and a node's advertised cost never understates its
  // final one), so the fixpoint inserts every participant; a policy that
  // broke that invariant would leave the cycle's nodes out permanently —
  // repair cannot re-attach non-members.
  std::vector<char> inserted(nodes_.size(), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (net::NodeId n : order) {
      if (inserted[static_cast<std::size_t>(n)]) continue;
      const net::NodeId parent = nodes_[static_cast<std::size_t>(n)].parent;
      if (tree.is_member(parent)) {
        tree.add_node(n, parent);
        inserted[static_cast<std::size_t>(n)] = 1;
        progress = true;
      }
    }
  }
  tree.recompute_ranks();
  return tree;
}

void TreeSetupProtocol::save_state(snap::Serializer& out) const {
  out.begin("TSUP");
  out.i32(root_);
  out.u64(nodes_.size());
  for (const NodeState& ns : nodes_) {
    out.i32(ns.parent);
    out.i32(ns.level);
    out.f64(ns.cost);
    out.i32(ns.rebroadcasts);
    out.boolean(ns.participates);
    out.boolean(ns.rebroadcast_pending);
  }
  rng_.save_state(out);
  out.u64(joins_received_);
  out.end();
}

}  // namespace essat::routing
