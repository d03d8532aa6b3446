#include "src/baselines/span.h"

#include <algorithm>
#include <numeric>

namespace essat::baselines {
namespace {

bool pair_connected(const net::Topology& topo, const std::vector<bool>& coord,
                    net::NodeId u, net::NodeId w, int max_hops) {
  if (topo.in_range(u, w)) return true;
  if (max_hops >= 1) {
    for (net::NodeId c : topo.neighbors(u)) {
      if (!coord[static_cast<std::size_t>(c)]) continue;
      if (topo.in_range(c, w)) return true;
      if (max_hops >= 2) {
        for (net::NodeId c2 : topo.neighbors(c)) {
          if (c2 == u || !coord[static_cast<std::size_t>(c2)]) continue;
          if (topo.in_range(c2, w)) return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

bool neighbors_covered(const net::Topology& topo, const std::vector<bool>& coordinator,
                       net::NodeId node, int max_hops) {
  const net::Topology::NeighborView nbrs = topo.neighbors(node);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (!pair_connected(topo, coordinator, nbrs[i], nbrs[j], max_hops)) {
        return false;
      }
    }
  }
  return true;
}

SpanElection elect_coordinators(const net::Topology& topo,
                                const routing::Tree& tree, util::Rng& rng) {
  SpanElection out;
  out.coordinator.assign(topo.num_nodes(), false);

  // Seed: tree interior nodes must stay awake to route (paper's modified
  // SPAN setup).
  for (net::NodeId n : tree.members()) {
    if (!tree.is_leaf(n)) out.coordinator[static_cast<std::size_t>(n)] = true;
  }

  // SPAN's announcement contention resolves in effectively random order;
  // iterate shuffled until a fixpoint.
  std::vector<net::NodeId> order(topo.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (net::NodeId n : order) {
      if (out.coordinator[static_cast<std::size_t>(n)]) continue;
      if (!neighbors_covered(topo, out.coordinator, n)) {
        out.coordinator[static_cast<std::size_t>(n)] = true;
        changed = true;
      }
    }
  }
  out.coordinator_count = static_cast<int>(
      std::count(out.coordinator.begin(), out.coordinator.end(), true));
  return out;
}

}  // namespace essat::baselines
