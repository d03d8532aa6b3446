// Distributed routing-tree construction (§3): "the root initiates the
// construction of the routing tree by flooding a setup request. Each node
// may receive setup requests from multiple nodes and selects the node with
// the lowest level as its parent."
//
// Operation: the root broadcasts SETUP(level 0, cost 0); every node adopts
// the best-scoring sender heard as its parent and rebroadcasts its own
// level/cost after a random jitter (re-broadcasting whenever it adopts, up
// to a cap). "Best" comes from the pluggable ParentPolicy: each SETUP
// advertises the sender's path cost, a node adopts when
// advertised + link_cost beats its current cost (min-hop costs reproduce
// the paper's lowest-level rule exactly). Nodes farther than the configured
// distance from the root do not participate (the paper's 300 m tree span).
// Each member then unicasts a JOIN to its parent so parents learn their
// children. At `finalize_after` the converged parent choices are assembled
// into a Tree and ranks are computed — the paper likewise completes setup
// "before the start of the experiments".
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/mac/csma.h"
#include "src/net/packet.h"
#include "src/net/topology.h"
#include "src/routing/parent_policy.h"
#include "src/routing/tree.h"
#include "src/sim/timer.h"
#include "src/util/rng.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::routing {

struct TreeSetupParams {
  util::Time rebroadcast_jitter = util::Time::from_milliseconds(50.0);
  util::Time join_at = util::Time::seconds(2);
  util::Time finalize_after = util::Time::seconds(3);
  double max_dist_from_root = 300.0;
  int max_rebroadcasts = 3;
};

class TreeSetupProtocol {
 public:
  // `policy` selects parents (non-owning, must outlive setup).
  TreeSetupProtocol(sim::Simulator& sim, const net::Topology& topo,
                    net::NodeId root, TreeSetupParams params, util::Rng&& rng,
                    ParentPolicy& policy = default_policy());

  // All node MACs must be attached before start().
  void attach_mac(net::NodeId node, mac::CsmaMac* mac);

  // Begins the flood; `on_complete` receives the assembled tree at
  // now + finalize_after.
  void start(std::function<void(Tree)> on_complete);

  // Feed kSetup / kJoin packets received at `self`.
  void handle_packet(net::NodeId self, const net::Packet& p);

  // Introspection for tests.
  net::NodeId chosen_parent(net::NodeId n) const {
    return nodes_.at(static_cast<std::size_t>(n)).parent;
  }
  int chosen_level(net::NodeId n) const {
    return nodes_.at(static_cast<std::size_t>(n)).level;
  }
  std::uint64_t joins_received() const { return joins_received_; }

  // Snapshot hook: per-node convergence state, the jitter RNG, and the JOIN
  // counter. Rebroadcast events already scheduled live in the EventQueue.
  void save_state(snap::Serializer& out) const;

 private:
  struct NodeState {
    net::NodeId parent = net::kNoNode;
    int level = -1;
    // Path cost under the active policy (== level for min-hop).
    double cost = std::numeric_limits<double>::infinity();
    int rebroadcasts = 0;
    bool participates = true;
    bool rebroadcast_pending = false;
  };

  void schedule_rebroadcast_(net::NodeId n);
  Tree assemble_() const;

  sim::Simulator& sim_;
  const net::Topology& topo_;
  net::NodeId root_;
  TreeSetupParams params_;
  util::Rng rng_;
  ParentPolicy& policy_;
  std::vector<NodeState> nodes_;
  std::vector<mac::CsmaMac*> macs_;
  std::uint64_t joins_received_ = 0;
};

}  // namespace essat::routing
