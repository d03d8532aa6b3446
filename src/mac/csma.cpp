#include "src/mac/csma.h"

#include <algorithm>
#include <utility>
#include <cassert>

#include "src/snap/packet_codec.h"
#include "src/snap/timer_codec.h"

namespace essat::mac {

CsmaMac::CsmaMac(sim::Simulator& sim, net::Channel& channel, energy::Radio& radio,
                 net::NodeId self, MacParams params, util::Rng&& rng)
    : sim_{sim},
      channel_{channel},
      radio_{radio},
      self_{self},
      params_{params},
      ack_duration_{params.ack_duration()},
      sifs_ack_{params.sifs + ack_duration_},
      eifs_{params.eifs()},
      ack_timeout_{params.ack_timeout()},
      rng_{std::move(rng)},
      backoff_timer_{sim},
      ack_timer_{sim},
      nav_timer_{sim},
      dense_dup_table_{channel.num_nodes() < params.dense_dup_table_below} {
  if (dense_dup_table_) {
    last_delivered_seq_.assign(channel.num_nodes(), kNoSeq);
  }
  channel_.attach(self_, this);
  update_listening_();
  radio_.add_state_observer([this](energy::RadioState s) {
    update_listening_();
    if (s == energy::RadioState::kOn) {
      if (in_flight_ && !in_backoff_ && !transmitting_ && !waiting_ack_) {
        begin_contention_();
      } else {
        try_start_();
      }
    }
  });
}

void CsmaMac::update_listening_() {
  channel_.set_listening(self_, radio_.is_on() && !transmitting_);
}

void CsmaMac::send(net::Packet p, TxCallback cb) {
  p.link_src = self_;
  ESSAT_TRACE(sim_, obs::TraceType::kMacEnqueue, self_,
              static_cast<std::uint16_t>(p.type), p.prov,
              static_cast<std::uint64_t>(p.link_dst));
  queue_.push_back(Outgoing{std::move(p), std::move(cb), 0, params_.cw_min, -1});
  try_start_();
}

bool CsmaMac::idle() const {
  return queue_.empty() && !in_flight_.has_value() && pending_acks_ == 0;
}

void CsmaMac::check_idle_() {
  if (idle() && idle_cb_) idle_cb_();
}

void CsmaMac::crash_reset() {
  backoff_timer_.cancel();
  ack_timer_.cancel();
  nav_timer_.cancel();
  queue_.clear();       // queued TxCallbacks are dropped unfired
  in_flight_.reset();   // likewise the head's
  head_tx_id_ = 0;      // its end, if still to come, finishes nothing
  transmitting_ = false;
  waiting_ack_ = false;
  in_backoff_ = false;
  saw_busy_ = false;
  decoded_last_busy_ = false;
  nav_until_ = util::Time::zero();
  // pending_acks_ and ack_tx_id_ intentionally untouched — see the header
  // comment.
  update_listening_();
}

net::AtimDestinations CsmaMac::pending_destinations() const {
  net::AtimDestinations out;
  auto add = [&out](net::NodeId d) {
    if (d != net::kBroadcastAddr &&
        std::find(out.begin(), out.end(), d) == out.end()) {
      out.push_back(d);
    }
  };
  if (in_flight_) add(in_flight_->packet.link_dst);
  for (std::size_t i = 0; i < queue_.size(); ++i) add(queue_[i].packet.link_dst);
  return out;
}

bool CsmaMac::medium_free_() const {
  return !channel_.busy(self_) && sim_.now() >= nav_until_;
}

void CsmaMac::try_start_() {
  if (in_flight_ || queue_.empty()) {
    check_idle_();
    return;
  }
  if (!radio_.is_on()) return;
  // Pick the first frame admitted by the tx filter (windowed baselines may
  // block some destinations while admitting others).
  std::size_t i = 0;
  if (tx_filter_) {
    while (i < queue_.size() && !tx_filter_(queue_[i].packet)) ++i;
    if (i == queue_.size()) return;
  }
  in_flight_ = queue_.take_at(i);
  in_flight_->attempts = 0;
  in_flight_->cw = in_flight_->packet.type == net::PacketType::kData
                       ? params_.initial_data_cw
                       : params_.cw_min;
  in_flight_->backoff_slots = -1;
  begin_contention_();
}

void CsmaMac::begin_contention_() {
  assert(in_flight_);
  if (!radio_.is_on() || transmitting_ || in_backoff_) return;
  if (channel_.busy(self_)) {
    // Access wanted while the carrier is already busy (fresh dequeue, retry
    // after an ACK timeout, ...): a CCA-busy defer like the mid-countdown
    // freeze below. Resumes via on_channel_activity_, which only re-enters
    // here once the medium clears, so each defer counts once.
    ++stats_.cca_busy_defers;
    ESSAT_TRACE(sim_, obs::TraceType::kMacCcaDefer, self_, 0,
                in_flight_->packet.prov, 0);
    return;
  }
  if (sim_.now() < nav_until_) {
    // Virtual carrier sense: defer to the NAV, then retry.
    nav_timer_.arm_at(nav_until_, [this] {
      if (in_flight_ && !in_backoff_ && !transmitting_ && !waiting_ack_) {
        begin_contention_();
      }
    });
    return;
  }
  if (in_flight_->backoff_slots < 0) {
    in_flight_->backoff_slots =
        static_cast<int>(rng_.uniform_int(0, in_flight_->cw));
  }
  in_backoff_ = true;
  countdown_start_ = sim_.now();
  const util::Time countdown =
      params_.difs + params_.slot * in_flight_->backoff_slots;
  ESSAT_TRACE(sim_, obs::TraceType::kMacBackoffStart, self_,
              static_cast<std::uint16_t>(in_flight_->backoff_slots),
              in_flight_->packet.prov,
              static_cast<std::uint64_t>(countdown.ns()));
  backoff_timer_.arm_in(countdown, [this] {
    in_backoff_ = false;
    if (!in_flight_) return;
    if (!radio_.is_on() || transmitting_) return;
    if (!medium_free_()) {
      // Busy exactly at expiry (the freeze path normally catches this
      // earlier): redraw to avoid a synchronized rush when the medium
      // clears. begin_contention_ counts the defer iff the carrier (not
      // just the NAV) is what blocks us.
      in_flight_->backoff_slots = -1;
      begin_contention_();
      return;
    }
    transmit_head_();
  });
}

void CsmaMac::freeze_backoff_() {
  if (!in_backoff_ || !in_flight_) return;
  backoff_timer_.cancel();
  in_backoff_ = false;
  // 802.11 freeze/resume: slots consumed after DIFS are kept off the
  // counter; the remainder resumes once the medium clears.
  const util::Time elapsed = sim_.now() - countdown_start_;
  if (elapsed > params_.difs) {
    const auto consumed =
        static_cast<int>((elapsed - params_.difs).ns() / params_.slot.ns());
    in_flight_->backoff_slots =
        std::max(0, in_flight_->backoff_slots - consumed);
  }
}

void CsmaMac::transmit_head_() {
  assert(in_flight_);
  if (in_flight_->attempts == 0) {
    in_flight_->packet.mac_seq = next_mac_seq_++;
  }
  ++in_flight_->attempts;
  ++stats_.transmissions;
  ESSAT_TRACE(sim_, obs::TraceType::kMacTxAttempt, self_,
              static_cast<std::uint16_t>(in_flight_->attempts),
              in_flight_->packet.prov,
              static_cast<std::uint64_t>(in_flight_->packet.link_dst));

  transmitting_ = true;
  update_listening_();
  radio_.note_tx(true);
  head_tx_id_ = channel_.start_tx(
      self_, in_flight_->packet,
      params_.tx_duration(in_flight_->packet.size_bytes));
}

void CsmaMac::on_tx_end(std::uint64_t tx_id) {
  if (tx_id == head_tx_id_) {
    head_tx_id_ = 0;
    end_head_tx_();
  } else if (tx_id == ack_tx_id_) {
    ack_tx_id_ = 0;
    end_ack_tx_();
  }
  // Otherwise a frame a crash abandoned: nothing waits for its end.
}

void CsmaMac::end_head_tx_() {
  assert(in_flight_);  // crash_reset forgets the head's tx id with it
  transmitting_ = false;
  update_listening_();
  radio_.note_tx(false);
  if (in_flight_->packet.is_broadcast()) {
    finish_head_(true);
  } else {
    waiting_ack_ = true;
    ack_timer_.arm_in(ack_timeout_, [this] { on_ack_timeout_(); });
  }
}

void CsmaMac::on_ack_timeout_() {
  waiting_ack_ = false;
  if (!in_flight_) return;
  if (in_flight_->attempts >= params_.max_attempts) {
    finish_head_(false);
    return;
  }
  ++stats_.retries;
  ESSAT_TRACE(sim_, obs::TraceType::kMacRetry, self_,
              static_cast<std::uint16_t>(in_flight_->attempts),
              in_flight_->packet.prov, 0);
  in_flight_->cw = std::min(in_flight_->cw * 2 + 1, params_.cw_max);
  in_flight_->backoff_slots = -1;  // redraw from the doubled window
  begin_contention_();
}

void CsmaMac::finish_head_(bool success) {
  assert(in_flight_);
  if (success) {
    ++stats_.frames_sent;
    ESSAT_TRACE(sim_, obs::TraceType::kMacSendOk, self_, 0,
                in_flight_->packet.prov, 0);
  } else {
    ++stats_.frames_failed;
    ESSAT_TRACE(sim_, obs::TraceType::kMacSendFail, self_,
                static_cast<std::uint16_t>(in_flight_->attempts),
                in_flight_->packet.prov, 0);
  }
  TxCallback cb = std::move(in_flight_->cb);
  in_flight_.reset();
  waiting_ack_ = false;
  if (cb) cb(success);
  try_start_();
}

void CsmaMac::on_rx_complete(const net::Packet& p, bool ok) {
  decoded_last_busy_ = ok;
  if (!ok) {
    // EIFS: after a garbled frame, defer long enough that a response we
    // could not decode (e.g. an ACK) is not stomped.
    nav_until_ = std::max(nav_until_, sim_.now() + eifs_);
    if (in_backoff_) freeze_backoff_();
    return;
  }

  if (p.type == net::PacketType::kAck) {
    if (waiting_ack_ && in_flight_ && p.link_dst == self_ &&
        p.link_src == in_flight_->packet.link_dst) {
      ack_timer_.cancel();
      waiting_ack_ = false;
      finish_head_(true);
    }
    return;
  }

  if (p.link_dst == self_) {
    // Unicast to us: always acknowledge (retransmissions too), deliver once.
    send_ack_(p.link_src);
    // Sparse mode's default slot value is 0; delivered mac_seqs start at 1,
    // so 0 is as unmatchable as the dense table's kNoSeq sentinel.
    std::uint32_t& last =
        dense_dup_table_
            ? last_delivered_seq_[static_cast<std::size_t>(p.link_src)]
            : sparse_delivered_seq_[static_cast<std::uint32_t>(p.link_src)];
    if (last == p.mac_seq) {
      ++stats_.duplicates;
      ESSAT_TRACE(sim_, obs::TraceType::kMacRxDup, self_, 0, p.prov,
                  static_cast<std::uint64_t>(p.link_src));
      return;
    }
    last = p.mac_seq;
    ++stats_.frames_received;
    ESSAT_TRACE(sim_, obs::TraceType::kMacRxDeliver, self_,
                static_cast<std::uint16_t>(p.type), p.prov,
                static_cast<std::uint64_t>(p.link_src));
    if (rx_handler_) rx_handler_(p);
    return;
  }

  if (p.is_broadcast()) {
    ++stats_.frames_received;
    ESSAT_TRACE(sim_, obs::TraceType::kMacRxDeliver, self_,
                static_cast<std::uint16_t>(p.type), p.prov,
                static_cast<std::uint64_t>(p.link_src));
    if (rx_handler_) rx_handler_(p);
    return;
  }

  // Overheard unicast data for someone else: NAV covers its ACK.
  nav_until_ = std::max(nav_until_, sim_.now() + sifs_ack_);
  if (in_backoff_) freeze_backoff_();
}

void CsmaMac::send_ack_(net::NodeId to) {
  ++pending_acks_;
  sim_.schedule_in(params_.sifs, [this, to] {
    // ACKs go out without carrier sense (802.11 gives them SIFS priority),
    // but we cannot emit while another of our transmissions is in progress
    // or the radio is down; the data sender will simply retry.
    if (!radio_.is_on() || transmitting_) {
      --pending_acks_;
      check_idle_();
      return;
    }
    if (in_backoff_) freeze_backoff_();  // pause contention while we reply
    net::Packet ack;
    ack.type = net::PacketType::kAck;
    ack.link_src = self_;
    ack.link_dst = to;
    ack.size_bytes = net::Packet::kAckBytes;
    ack.mac_seq = next_mac_seq_++;
    ++stats_.acks_sent;
    ESSAT_TRACE(sim_, obs::TraceType::kMacAckTx, self_, 0, 0,
                static_cast<std::uint64_t>(to));
    transmitting_ = true;
    update_listening_();
    radio_.note_tx(true);
    ack_tx_id_ = channel_.start_tx(self_, ack, ack_duration_);
  });
}

void CsmaMac::end_ack_tx_() {
  transmitting_ = false;
  update_listening_();
  radio_.note_tx(false);
  --pending_acks_;
  // Resume a paused contention; channel notifications handle the
  // busy->idle edge, but our own transmitting_ flag is local.
  if (in_flight_ && !in_backoff_ && !waiting_ack_) begin_contention_();
  check_idle_();
}

void CsmaMac::on_channel_activity(bool busy) {
  assert(busy == channel_.busy(self_));
  if (busy) {
    saw_busy_ = true;
    if (in_backoff_) {
      // Carrier went busy mid-countdown: a CCA-caused access defer (the
      // freezes for our own ACK replies or NAV/EIFS are not counted here —
      // they are self-inflicted pauses, not channel contention).
      ++stats_.cca_busy_defers;
      ESSAT_TRACE(sim_, obs::TraceType::kMacCcaDefer, self_, 0,
                  in_flight_->packet.prov, 0);
      freeze_backoff_();
    }
    return;
  }
  if (saw_busy_) {
    saw_busy_ = false;
    if (!decoded_last_busy_) {
      // The busy period ended without a decodable frame (collision, or we
      // were not synchronized to its preamble): defer long enough for a
      // response we could not anticipate — 802.11's EIFS. Without this,
      // hidden contenders stomp ACKs and senders burn their retry budget
      // against receivers that already accepted the frame and went back to
      // sleep.
      nav_until_ = std::max(nav_until_, sim_.now() + sifs_ack_);
    }
    decoded_last_busy_ = false;
  }
  if (in_flight_ && !in_backoff_ && !transmitting_ && !waiting_ack_ &&
      radio_.is_on()) {
    begin_contention_();  // defers internally to the NAV if needed
  }
}

void CsmaMac::save_state(snap::Serializer& out) const {
  out.begin("CMAC");
  const auto save_outgoing = [](snap::Serializer& o, const Outgoing& og) {
    snap::save_packet(o, og.packet);
    o.boolean(og.cb != nullptr);
    o.i32(og.attempts);
    o.i32(og.cw);
    o.i32(og.backoff_slots);
  };
  queue_.save_state(out, save_outgoing);
  out.boolean(in_flight_.has_value());
  if (in_flight_.has_value()) save_outgoing(out, *in_flight_);
  out.boolean(transmitting_);
  out.boolean(waiting_ack_);
  out.boolean(in_backoff_);
  out.time(countdown_start_);
  out.time(nav_until_);
  out.boolean(saw_busy_);
  out.boolean(decoded_last_busy_);
  out.i32(pending_acks_);
  out.u64(head_tx_id_);
  out.u64(ack_tx_id_);
  snap::save_timer(out, backoff_timer_);
  snap::save_timer(out, ack_timer_);
  snap::save_timer(out, nav_timer_);
  rng_.save_state(out);
  out.u32(next_mac_seq_);
  out.boolean(dense_dup_table_);
  out.u64(last_delivered_seq_.size());
  for (std::uint32_t s : last_delivered_seq_) out.u32(s);
  sparse_delivered_seq_.save_state(
      out, [](snap::Serializer& o, std::uint32_t s) { o.u32(s); });
  out.u64(stats_.frames_sent);
  out.u64(stats_.frames_failed);
  out.u64(stats_.transmissions);
  out.u64(stats_.retries);
  out.u64(stats_.cca_busy_defers);
  out.u64(stats_.frames_received);
  out.u64(stats_.duplicates);
  out.u64(stats_.acks_sent);
  out.end();
}

}  // namespace essat::mac
