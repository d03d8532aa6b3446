// Link-quality estimation feeding ETX-style parent selection.
//
// The channel's LinkModel decides per-frame whether a link delivers; this
// estimator turns that into a per-directed-link PRR the routing layer can
// rank parents by, closing the loop between channel realism and topology
// control. Two sources are blended Beta-style:
//
//   prr(l) = (w * prior(l) + delivered(l)) / (w + frames(l))
//
//  * prior(l)  — the installed LinkModel's own long-run expectation
//    (LinkModel::expected_prr at the current geometric distance, e.g. the
//    shadowing distance/PRR curve). Available before any traffic flows, so
//    tree *construction* is already link-quality-aware.
//  * frames/delivered — the channel's observed per-link loss statistics
//    (Channel::frames_on / dropped_by_model), which dominate once traffic
//    has exercised a link. They count only frames the receiver could have
//    decoded (listening, or mid-reception). Frame counting follows
//    Channel::set_link_stats_enabled — the harness keeps it on exactly when
//    the active ParentPolicy declares uses_link_estimator().
//
// Under a lossless channel every PRR is 1 and ETX degenerates to hop count.
#pragma once

#include "src/net/channel.h"
#include "src/net/topology.h"
#include "src/net/types.h"
#include "src/routing/parent_policy.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::routing {

class LinkEstimator {
 public:
  // Shares EtxParams with EtxPolicy so the smoothing knobs (prior_weight,
  // min_prr) have exactly one definition; max_link_etx is policy-level and
  // ignored here.
  LinkEstimator(const net::Channel& channel, const net::Topology& topo,
                EtxParams params = {});

  // Estimated delivery probability of the directed link src -> dst, in
  // [min_prr, 1]. Distances are read from the topology's current position
  // snapshot, so estimates track mobility.
  double prr(net::NodeId src, net::NodeId dst) const;

  // Bidirectional expected transmission count of the hop src -> dst: the
  // data frame must cross forward and the MAC-level ACK back, so
  // etx = 1 / (prr_fwd * prr_rev). 1 on a lossless channel.
  double etx(net::NodeId src, net::NodeId dst) const;

  // Snapshot hook: the smoothing knobs only. Every estimate is a pure
  // function of those plus the channel's link statistics and the topology's
  // positions, both serialized by their owners.
  void save_state(snap::Serializer& out) const;

 private:
  const net::Channel& channel_;
  const net::Topology& topo_;
  EtxParams params_;
};

}  // namespace essat::routing
