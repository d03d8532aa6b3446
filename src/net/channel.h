// Broadcast wireless medium with unit-disc propagation, per-receiver
// collision tracking, and carrier sense.
//
// Model (matches what the paper's ns-2 setup exercises):
//  * A transmission from node s occupies the air at every node within range
//    for [t + prop, t + prop + duration).
//  * A node receives a frame iff it is listening (radio fully ON and not
//    transmitting) when the frame starts arriving, remains listening for the
//    whole frame, and no other in-range transmission overlaps it (collision).
//  * Carrier sense at node n reports busy while any in-range transmission is
//    arriving at n, or while n itself transmits.
//  * An optional LinkModel (see net/link_model.h) layers probabilistic loss
//    on the unit disc: it is sampled once per (directed link, frame) and can
//    declare a frame undecodable at a receiver without removing its energy
//    from the air.
//
// Hot-path shape (see README "Performance" and "Scalability"): each
// transmission is moved once into a pooled shared slot (net/packet_pool.h);
// the begin/end arrival events and every receiver's in-progress-reception
// state hold 16-byte PacketRefs into that slot, so broadcast delivery copies
// no Packet and — once the pool is warm — allocates nothing. Arrival
// processing visits only the sender's interference neighborhood from the
// topology's grid index (O(neighbors) per transmission, never O(n)). Each
// transmission pins the topology's current neighbor-list generation at
// start_tx and unpins it after its end event, so both events read the same
// receivers even if a mobility epoch refreshes the lists mid-frame; static
// and mobile topologies share this one path.
// Receivers are reached through a devirtualization-friendly ChannelListener
// pointer plus a channel-side cached `listening` flag, so the per-arrival
// "can this node hear?" check is one flag load with no indirect call at
// all. Per-link statistics are dense degree-sized rows on small topologies
// and an open-addressed (src,dst)-keyed map on large ones — identical
// counters either way, O(observed links) memory always.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/link_model.h"
#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/net/topology.h"
#include "src/net/types.h"
#include "src/sim/simulator.h"
#include "src/util/flat_map.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::net {

struct ChannelParams {
  // One-hop propagation delay (applied uniformly; 125 m of vacuum is ~0.4 us,
  // rounded up to absorb PHY turnaround).
  util::Time propagation_delay = util::Time::microseconds(1);
  // Capture effect: an in-progress reception survives an overlapping
  // arrival whose sender is at least this factor farther away (ns-2's 10 dB
  // capture threshold under two-ray d^-4 is a 10^(1/4) ~= 1.78 distance
  // ratio). Set <= 0 to disable capture (all overlaps collide).
  double capture_distance_ratio = 1.78;
  // Per-link statistics storage: topologies with fewer nodes than this use
  // the legacy dense per-sender rows (pointer-stable, scan-friendly);
  // larger ones use the open-addressed (src,dst)-keyed FlatMap whose memory
  // is O(observed links) with no per-node row headers. Both produce
  // identical counters; set to 0 / SIZE_MAX to force sparse / dense for the
  // A/B equivalence tests.
  std::size_t dense_link_stats_below = 1024;
};

// Receiver-side interface of the medium. One implementation per attached
// node (the MAC); replaces the three std::functions the Attachment struct
// used to carry — a devirtualizable call through one pointer instead of
// three type-erased dispatches, and 8 bytes per node instead of 96.
class ChannelListener {
 public:
  virtual ~ChannelListener() = default;
  // Frame fully arrived. `ok` is false for collisions or receptions that
  // the radio abandoned (turned off / started transmitting mid-frame).
  // The Packet reference is shared and immutable; copy what you keep.
  virtual void on_rx_complete(const Packet& p, bool ok) = 0;
  // Fired whenever the carrier-sense state at this node may have changed.
  virtual void on_channel_activity() = 0;
};

class Channel {
 public:
  Channel(sim::Simulator& sim, const Topology& topo, ChannelParams params = {});

  // Installs the per-link loss model. Until one is installed every in-range
  // frame is decodable; models reporting always_delivers() (the unit disc)
  // are bypassed on the hot path at the same zero cost.
  // The model is sampled once per (directed link, frame) at frame-arrival
  // time; a model-dropped frame still occupies the air for carrier sense
  // (energy above the detection threshold but below the decoding threshold
  // — the gray zone) but neither starts a reception nor corrupts one in
  // progress.
  void set_link_model(std::unique_ptr<LinkModel> model);
  const LinkModel* link_model() const { return link_model_.get(); }

  // Attaches the node's receive-side listener. The channel never calls a
  // detached node; pass nullptr to detach.
  void attach(NodeId node, ChannelListener* listener) {
    nodes_.at(static_cast<std::size_t>(node)).listener = listener;
  }

  // Cached "can this node hear right now?" flag, maintained by the owner of
  // the radio/MAC state (radio fully ON and not transmitting). Replaces the
  // per-arrival is_listening() callback: the hot path reads one bool.
  // Nodes start not listening — attach + set_listening(node, true) is the
  // canonical bring-up.
  void set_listening(NodeId node, bool listening);
  bool listening(NodeId node) const { return node_(node).listening; }

  std::size_t num_nodes() const { return nodes_.size(); }

  // Puts `p` on the air from `sender` for `duration`. The sender's MAC is
  // responsible for serializing its own transmissions.
  void start_tx(NodeId sender, Packet p, util::Time duration);

  // Carrier sense at `node`. Inline: the MAC consults it on every channel
  // event and contention step.
  bool busy(NodeId node) const {
    const PerNode& n = node_(node);
    return n.arriving_count > 0 || n.transmitting;
  }

  // Statistics.
  std::uint64_t transmissions() const { return transmissions_; }
  std::uint64_t collisions() const { return collisions_; }
  std::uint64_t delivered() const { return delivered_; }
  // (link, frame) samples the link model declared undecodable, in total.
  // Counted for every in-range receiver of every transmission, listening
  // or not.
  std::uint64_t dropped_by_model() const { return dropped_by_model_; }
  // Per-directed-link drop/offer counters, the numerator/denominator
  // routing::LinkEstimator turns into an observed PRR. Dense mode (small
  // topologies): a src-indexed table of contiguous degree-sized rows
  // scanned linearly — no hash probes on the delivery path. Sparse mode
  // (above ChannelParams::dense_link_stats_below): one open-addressed map
  // keyed by packed (src,dst) — no per-node rows at all. Only accumulated
  // while link stats are enabled (below); zero everywhere otherwise.
  std::uint64_t dropped_by_model(NodeId src, NodeId dst) const;
  std::uint64_t frames_on(NodeId src, NodeId dst) const;
  // Per-frame link accounting costs a lookup per in-range receiver;
  // consumers that never read it (anything but an estimator-backed routing
  // policy) can switch it off. On by default so a bare Channel +
  // LinkEstimator works out of the box; the harness disables it unless the
  // active ParentPolicy declares uses_link_estimator().
  void set_link_stats_enabled(bool on) { link_stats_enabled_ = on; }
  bool link_stats_enabled() const { return link_stats_enabled_; }

  // Snapshot hook: per-node carrier/reception state (in-flight frames by
  // content), medium counters, link statistics (dense rows or sparse map —
  // serialized as-stored, so the bytes also attest the storage mode), the
  // link model's state, and the tx-id counter. Listener pointers are wiring.
  void save_state(snap::Serializer& out) const;

 private:
  struct Reception {
    bool active = false;
    bool corrupted = false;
    PacketRef frame;  // shared with the arrival events; never copied
  };
  struct PerNode {
    ChannelListener* listener = nullptr;
    bool listening = false;  // cached radio-ON-and-not-transmitting
    bool transmitting = false;
    int arriving_count = 0;  // in-range transmissions currently on the air
    Reception rx;
  };

  void begin_arrival_(NodeId receiver, const PacketRef& p);
  void end_arrival_(NodeId receiver, const PacketRef& p);
  void notify_(NodeId node);
  // Unchecked per-node access for the per-arrival hot path (ids come from
  // the topology's neighbor lists, which are in range by construction).
  PerNode& node_(NodeId n) {
    assert(n >= 0 && static_cast<std::size_t>(n) < nodes_.size());
    return nodes_[static_cast<std::size_t>(n)];
  }
  const PerNode& node_(NodeId n) const {
    return const_cast<Channel*>(this)->node_(n);
  }
  // One directed link's counters.
  struct LinkCounters {
    std::uint64_t frames = 0;
    std::uint64_t drops = 0;
  };
  // Dense-row entry: a sender's observed receivers (its in-range
  // neighborhood), so a linear scan is a dozen contiguous entries.
  struct LinkStat {
    NodeId dst = kNoNode;
    LinkCounters counters;
  };
  static std::uint64_t link_key_(NodeId src, NodeId dst) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
           static_cast<std::uint32_t>(dst);
  }
  LinkCounters& link_stat_(NodeId src, NodeId dst);
  const LinkCounters* find_link_stat_(NodeId src, NodeId dst) const;
  sim::Simulator& sim_;
  const Topology& topo_;
  ChannelParams params_;
  std::unique_ptr<LinkModel> link_model_;
  bool model_active_ = false;  // false also for installed lossless models
  bool link_stats_enabled_ = true;
  const bool dense_stats_;  // storage choice, frozen at construction
  std::vector<PerNode> nodes_;
  PacketPool pool_;
  std::uint64_t transmissions_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_by_model_ = 0;
  // Dense mode: src-indexed rows of observed receivers; empty until the
  // first accumulation under link_stats_enabled_.
  std::vector<std::vector<LinkStat>> link_stats_;
  // Sparse mode: packed (src,dst) -> counters. The all-ones key is
  // unreachable (node ids are 31-bit).
  util::FlatMap<std::uint64_t, LinkCounters> sparse_stats_;
  std::uint64_t next_tx_id_ = 0;
};

}  // namespace essat::net
