#include "src/net/channel.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "src/snap/packet_codec.h"

namespace essat::net {

namespace {

// kChanDrop arg16: drop reason in the high byte, packet type in the low.
// (Unused when ESSAT_TRACE compiles out under -DESSAT_TRACING=OFF.)
[[maybe_unused]] std::uint16_t drop_arg(obs::DropReason r, PacketType t) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(r) << 8 |
                                    static_cast<std::uint16_t>(t));
}

}  // namespace

Channel::Channel(sim::Simulator& sim, const Topology& topo, ChannelParams params)
    : Channel{sim, topo, util::SlotIndex::all(topo.num_nodes()), params} {}

Channel::Channel(sim::Simulator& sim, const Topology& topo,
                 std::shared_ptr<const util::SlotIndex> roster,
                 ChannelParams params)
    : sim_{sim},
      topo_{topo},
      params_{params},
      dense_stats_{topo.num_nodes() < params.dense_link_stats_below},
      roster_{std::move(roster)},
      slot_table_{roster_->slot_table()},
      nodes_(roster_->size()) {
  if (roster_->universe() != topo.num_nodes()) {
    throw std::invalid_argument{
        "Channel: roster universe differs from the topology"};
  }
}

void Channel::set_link_model(std::unique_ptr<LinkModel> model) {
  link_model_ = std::move(model);
  // Lossless models are bypassed on the hot path: arrivals cost exactly as
  // much as with no model installed.
  model_active_ = link_model_ && !link_model_->always_delivers();
  model_every_frame_ = model_active_ && link_model_->steps_every_frame();
}

void Channel::set_listening(NodeId node, bool listening) {
  PerNode& n = node_(node);
  if (n.listening == listening) return;
  n.listening = listening;
  ESSAT_TRACE(sim_, obs::TraceType::kChanListen, node,
              static_cast<std::uint16_t>(listening), 0, 0);
}

Channel::LinkCounters& Channel::link_stat_(NodeId src, NodeId dst) {
  if (!dense_stats_) return sparse_stats_[link_key(src, dst)];
  if (link_stats_.empty()) link_stats_.resize(nodes_.size());
  const util::SlotIndex::Slot s = slot_(src);  // an attached sender
  assert(s != util::SlotIndex::kNoSlot);
  auto& row = link_stats_[static_cast<std::size_t>(s)];
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].dst == dst) {
      // Transpose-on-hit: under mobility a row accumulates every receiver
      // the sender has EVER reached, but only the current neighborhood is
      // hot — one adjacent swap per hit keeps those entries at the front,
      // so the scan stays O(current degree) even when the row grows.
      // Counter placement is unobservable, so determinism is untouched.
      if (i > 0) {
        std::swap(row[i - 1], row[i]);
        return row[i - 1].counters;
      }
      return row[i].counters;
    }
  }
  row.push_back(LinkStat{dst, {}});
  return row.back().counters;
}

const Channel::LinkCounters* Channel::find_link_stat_(NodeId src,
                                                      NodeId dst) const {
  // Only roster nodes send, so no other source has counters.
  const util::SlotIndex::Slot slot = roster_->slot(src);
  if (slot == util::SlotIndex::kNoSlot) return nullptr;
  if (!dense_stats_) return sparse_stats_.find(link_key(src, dst));
  if (link_stats_.empty()) return nullptr;
  for (const LinkStat& s : link_stats_[static_cast<std::size_t>(slot)]) {
    if (s.dst == dst) return &s.counters;
  }
  return nullptr;
}

std::uint64_t Channel::dropped_by_model(NodeId src, NodeId dst) const {
  const LinkCounters* s = find_link_stat_(src, dst);
  return s != nullptr ? s->drops : 0;
}

std::uint64_t Channel::frames_on(NodeId src, NodeId dst) const {
  const LinkCounters* s = find_link_stat_(src, dst);
  return s != nullptr ? s->frames : 0;
}

std::uint64_t Channel::start_tx(NodeId sender, Packet p, util::Time duration) {
  if (!roster_->contains(sender)) {
    throw std::out_of_range{"Channel::start_tx: sender outside the roster"};
  }
  ++transmissions_;
  const std::uint64_t tx_id = ++next_tx_id_;
  p.channel_tx_id = tx_id;
  // Conservation anchor: arg16 is the frozen in-range receiver count; each
  // of those receivers emits exactly one kChanDeliver or kChanDrop for this
  // tx id (obs::check_conservation verifies the match).
  ESSAT_TRACE(sim_, obs::TraceType::kChanTxBegin, sender,
              static_cast<std::uint16_t>(topo_.neighbors(sender).size()),
              tx_id, p.prov);
  auto& s = node_(sender);
  // Carrier-sense notifications fire only on busy<->idle edges: a notify
  // that does not change busy() is a no-op in every attached MAC (the busy
  // branch is idempotent and contention only resumes on the idle edge), so
  // skipping it is observably identical and avoids the dominant share of
  // activity callbacks on dense neighborhoods.
  const bool was_busy = s.arriving_count > 0 || s.transmitting;
  s.transmitting = true;
  // A node cannot hear while it talks: abandon any in-progress reception.
  if (s.rx.active) {
    s.rx.corrupted = true;
  }
  if (!was_busy) notify_(s, true);

  // One shared immutable copy of the frame for the whole transmission: the
  // arrival events and every receiver's reception state hold refs into it.
  PacketRef frame = pool_.acquire(std::move(p));

  // One event pair per transmission: every in-range receiver shares the
  // same begin/end timestamps, so both events visit the receivers in
  // neighbor-list order inside a single callback. The frame pins the
  // topology's current list generation until its end event, so an epoch
  // tick while it is on the air cannot change its receiver set — a begin
  // without its end would corrupt the carrier-sense counts.
  const std::uint32_t gen = topo_.pin_generation();
  const util::Time arrive = sim_.now() + params_.propagation_delay;
  sim_.schedule_at(arrive, [this, sender, gen, frame] {
    for (NodeId m : topo_.neighbors(sender, gen)) begin_arrival_(m, frame);
  });
  sim_.schedule_at(arrive + duration, [this, sender, gen, frame] {
    for (NodeId m : topo_.neighbors(sender, gen)) end_arrival_(m, frame);
    topo_.unpin_generation(gen);
  });
  // The sender's end: carrier sense first, then the sender's own tx-end,
  // so the MAC sees the medium as it is when it resumes.
  sim_.schedule_at(sim_.now() + duration, [this, sender, tx_id] {
    PerNode& node = node_(sender);
    node.transmitting = false;
    if (node.arriving_count == 0) notify_(node, false);  // busy -> idle edge
    if (node.listener != nullptr) node.listener->on_tx_end(tx_id);
  });
  return tx_id;
}

void Channel::begin_arrival_(NodeId receiver, const PacketRef& p) {
  const util::SlotIndex::Slot slot = slot_(receiver);
  if (slot == util::SlotIndex::kNoSlot) {
    // Outside the roster: no radio, no listener, no state to update, and
    // no link-model draw, since no answer here can change anything.
    ESSAT_TRACE(sim_, obs::TraceType::kChanDrop, receiver,
                drop_arg(obs::DropReason::kDetached, p->type),
                p->channel_tx_id, p->prov);
    return;
  }
  auto& node = nodes_[static_cast<std::size_t>(slot)];
  // Idle -> busy edge iff this is the first arriving frame at a silent
  // node; otherwise busy() was already true and the notify is skipped.
  const bool busy_edge = node.arriving_count == 0 && !node.transmitting;
  ++node.arriving_count;

  // The frame can change something here only if it would start a
  // reception or would hit one in progress; only there does the link
  // model's answer count. Its draws are keyed by (link, frame), so not
  // asking moves no other draw. An undecodable frame keeps occupying the
  // air (arriving_count, i.e. carrier sense) but neither starts a
  // reception nor corrupts one in progress.
  const bool would_start = !node.rx.active && node.arriving_count == 1 &&
                           !node.transmitting && node.listening;
  const bool decodable_matters = would_start || node.rx.active;
  // A model whose chains step every frame is asked at every receiver, to
  // keep their clock.
  const bool sample = model_active_ && (decodable_matters || model_every_frame_);
  const double sender_dist =
      sample || node.rx.active
          ? distance(topo_.position(p->link_src), topo_.position(receiver))
          : 0.0;
  if (sample) {
    const bool decodable = link_model_->deliver(p->link_src, receiver,
                                                sender_dist, p->channel_tx_id);
    if (decodable_matters) {
      // Per-link sample count, the denominator LinkEstimator pairs with
      // dropped_by_model(src, dst) to turn observed losses into a PRR.
      // Skipped when nothing will read it, so plain lossy runs never
      // materialize the per-link storage.
      LinkCounters* stat = nullptr;
      if (link_stats_enabled_) {
        stat = &link_stat_(p->link_src, receiver);
        ++stat->frames;
      }
      if (!decodable) {
        ++dropped_by_model_;
        if (stat != nullptr) ++stat->drops;
        ESSAT_TRACE(sim_, obs::TraceType::kChanDrop, receiver,
                    drop_arg(obs::DropReason::kModel, p->type),
                    p->channel_tx_id, p->prov);
        if (busy_edge) notify_(node, true);
        return;
      }
    }
  }

  if (node.rx.active) {
    // Overlap with an in-progress reception corrupts it — unless the new
    // arrival's sender is far enough away for the radio to capture the
    // original frame (the distance-ratio rule of ChannelParams).
    const bool captured =
        params_.capture_distance_ratio > 0.0 &&
        sender_dist >= params_.capture_distance_ratio *
                           distance(topo_.position(receiver),
                                    topo_.position(node.rx.frame->link_src));
    if (!captured) {
      node.rx.corrupted = true;
      ++collisions_;
    }
    // Either way the overlapping frame itself is never received here; the
    // corrupted original reports its own fate at its end_arrival_.
    ESSAT_TRACE(sim_, obs::TraceType::kChanDrop, receiver,
                drop_arg(captured ? obs::DropReason::kCaptured
                                  : obs::DropReason::kCollision,
                         p->type),
                p->channel_tx_id, p->prov);
  } else if (would_start) {
    node.rx.active = true;
    node.rx.corrupted = false;
    node.rx.frame = p;  // refcount bump, not a Packet copy
  } else {
    // No reception started and none in progress: the frame is lost to this
    // receiver now. Attribute why, most specific condition first; a node
    // with no listener has no radio at all, so it is not counted as asleep.
    ESSAT_TRACE(sim_, obs::TraceType::kChanDrop, receiver,
                drop_arg(node.listener == nullptr ? obs::DropReason::kDetached
                         : node.transmitting      ? obs::DropReason::kSelfTx
                         : node.arriving_count > 1 ? obs::DropReason::kBusy
                                                   : obs::DropReason::kRadioOff,
                         p->type),
                p->channel_tx_id, p->prov);
  }
  if (busy_edge) notify_(node, true);
}

void Channel::end_arrival_(NodeId receiver, const PacketRef& p) {
  const util::SlotIndex::Slot slot = slot_(receiver);
  if (slot == util::SlotIndex::kNoSlot) return;  // dropped at its begin
  auto& node = nodes_[static_cast<std::size_t>(slot)];
  --node.arriving_count;
  assert(node.arriving_count >= 0);
  // Busy -> idle edge iff the air just went quiet at a non-transmitting
  // node; the MAC's contention resume (and its EIFS bookkeeping) hangs off
  // exactly this edge.
  const bool idle_edge = node.arriving_count == 0 && !node.transmitting;

  if (node.rx.active && node.rx.frame->channel_tx_id == p->channel_tx_id) {
    const bool listening = node.listening;
    const bool ok = !node.rx.corrupted && listening && !node.transmitting;
    // Detach the ref before the callback: on_rx_complete may re-enter the
    // channel (ACK replies start transmissions that clobber rx state).
    const PacketRef delivered_frame = std::move(node.rx.frame);
    node.rx.active = false;
    if (ok) {
      ++delivered_;
      ESSAT_TRACE(sim_, obs::TraceType::kChanDeliver, receiver,
                  static_cast<std::uint16_t>(p->type), p->channel_tx_id,
                  p->prov);
    } else {
      ESSAT_TRACE(sim_, obs::TraceType::kChanDrop, receiver,
                  drop_arg(!listening || node.transmitting
                               ? obs::DropReason::kAbandoned
                               : obs::DropReason::kCollision,
                           p->type),
                  p->channel_tx_id, p->prov);
    }
    if (node.listener != nullptr) {
      node.listener->on_rx_complete(*delivered_frame, ok);
    }
  }
  if (idle_edge) notify_(node, false);
}

void Channel::save_state(snap::Serializer& out) const {
  out.begin("CHAN");
  out.boolean(model_active_);
  out.boolean(link_stats_enabled_);
  out.boolean(dense_stats_);
  out.u64(nodes_.size());
  for (const PerNode& n : nodes_) {
    out.boolean(n.listening);
    out.boolean(n.transmitting);
    out.i32(n.arriving_count);
    out.boolean(n.rx.active);
    out.boolean(n.rx.corrupted);
    const bool has_frame = n.rx.active && n.rx.frame != nullptr;
    out.boolean(has_frame);
    if (has_frame) snap::save_packet(out, *n.rx.frame);
  }
  out.u64(transmissions_);
  out.u64(collisions_);
  out.u64(delivered_);
  out.u64(dropped_by_model_);
  out.u64(next_tx_id_);
  // Link statistics, as stored. Dense rows append in observation order and
  // the sparse map's save_state captures slot layout, so both are already
  // deterministic for a deterministic run.
  out.u64(link_stats_.size());
  for (const auto& row : link_stats_) {
    out.u64(row.size());
    for (const LinkStat& s : row) {
      out.i32(s.dst);
      out.u64(s.counters.frames);
      out.u64(s.counters.drops);
    }
  }
  sparse_stats_.save_state(out, [](snap::Serializer& o, const LinkCounters& c) {
    o.u64(c.frames);
    o.u64(c.drops);
  });
  out.u64(pool_.recycled_blocks());
  if (link_model_ != nullptr) link_model_->save_state(out);
  out.end();
}

}  // namespace essat::net
