// CSMA/CA medium access (802.11-DCF subset): carrier sense + DIFS + slotted
// random backoff with freeze/resume, immediate ACK for unicast frames,
// exponential-backoff retransmission, duplicate suppression, NAV/EIFS
// deferral. Broadcast frames are sent once, unacknowledged.
//
// This is the source of the delay jitter the paper's traffic shapers exist
// to tame: "the random backoff scheme in widely adopted CSMA/CA MAC
// protocols can cause variable communication delays due to channel
// contention ... the delay jitter can accumulate over multiple hops" (§1).
//
// Fidelity notes (matching ns-2's 802.11 model, the paper's MAC):
//  * Backoff counters freeze while the medium is busy and resume with the
//    remaining slots — essential when many sources fire at the same epoch
//    boundary, otherwise contenders stay synchronized and re-collide.
//  * Overheard unicast data raises a NAV until the expected ACK completes;
//    corrupted receptions defer by EIFS. Both protect ACKs from neighbors.
//
// Interaction with power management:
//  * The radio must be fully ON to transmit or receive; the MAC pauses while
//    it is off and resumes on wake (it observes radio state changes).
//  * Windowed baselines (SYNC/PSM) install a tx filter: frames failing the
//    predicate stay queued without consuming retry attempts.
//  * If the receiver sleeps through all attempts, the send fails after
//    max_attempts — exactly the failure mode §4.1 describes for inaccurate
//    expected reception times.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/energy/radio.h"
#include "src/mac/mac_params.h"
#include "src/net/channel.h"
#include "src/net/packet.h"
#include "src/sim/timer.h"
#include "src/util/flat_map.h"
#include "src/util/ring_queue.h"
#include "src/util/rng.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::mac {

struct MacStats {
  std::uint64_t frames_sent = 0;      // completed sends (unicast acked / bcast out)
  std::uint64_t frames_failed = 0;    // unicast gave up after max_attempts
  std::uint64_t transmissions = 0;    // individual attempts put on the air
  // Retransmission cause attribution: this MAC retransmits only after an
  // ACK timeout (the frame or its ACK was lost/collided — the dominant mode
  // on gray-zone links), so `retries` *is* the no-ACK retransmission count;
  // a busy carrier never consumes an attempt. `cca_busy_defers` counts the
  // times a pending frame's channel access was frozen or redrawn because
  // carrier sense reported busy (contention — access delay, zero frames
  // retransmitted). Together they attribute duty/latency inflation under
  // load vs loss.
  std::uint64_t retries = 0;
  std::uint64_t cca_busy_defers = 0;
  std::uint64_t frames_received = 0;  // delivered to the upper layer
  std::uint64_t duplicates = 0;
  std::uint64_t acks_sent = 0;
};

class CsmaMac : public net::ChannelListener {
 public:
  // The three upper-layer hooks stay type-erased std::functions by design:
  // they are installed once per node at stack-assembly time (or moved, not
  // constructed, on the per-send path), their captures fit the small-buffer
  // optimization, and the steady-state zero-alloc tests in
  // tests/perf_alloc_test.cpp hold with them in place.
  using TxCallback = std::function<void(bool success)>;   // essat-lint: allow(hot-path-alloc)
  using RxHandler = std::function<void(const net::Packet&)>;  // essat-lint: allow(hot-path-alloc)
  using TxFilter = std::function<bool(const net::Packet&)>;   // essat-lint: allow(hot-path-alloc)

  CsmaMac(sim::Simulator& sim, net::Channel& channel, energy::Radio& radio,
          net::NodeId self, MacParams params, util::Rng&& rng);

  net::NodeId self() const { return self_; }

  // Enqueues a frame. Unicast frames (link_dst != broadcast) are ACKed and
  // retried; `cb(false)` fires after max_attempts without an ACK. Broadcast
  // frames complete as soon as they are transmitted once. `cb` may be null.
  void send(net::Packet p, TxCallback cb = nullptr);

  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

  // Gate transmissions (windowed baselines). A null filter admits all
  // frames. Blocked frames wait in the queue without penalty; call `kick()`
  // after loosening the filter.
  void set_tx_filter(TxFilter filter) { tx_filter_ = std::move(filter); }
  // Re-evaluates the head of the queue (e.g. after a tx window opened).
  void kick() { try_start_(); }

  // True when nothing is queued or in flight — including a pending ACK for
  // a frame we just accepted. Safe Sleep consults this before powering the
  // radio down; sleeping between a reception and its SIFS-deferred ACK
  // would make the sender retry against a dead radio.
  bool idle() const;
  // Invoked whenever the MAC drains to idle.
  // essat-lint: allow(hot-path-alloc) — installed once per node at setup
  void set_idle_callback(std::function<void()> cb) { idle_cb_ = std::move(cb); }

  // Destinations of currently queued unicast frames (PSM uses this to build
  // its ATIM announcements; the inline-capacity type feeds straight into
  // make_atim_packet without an allocation in the common case).
  net::AtimDestinations pending_destinations() const;
  bool has_pending() const { return !queue_.empty() || in_flight_.has_value(); }

  const MacStats& stats() const { return stats_; }

  // Node crash (fault engine): drops the queue and the in-flight frame
  // without firing their callbacks, cancels every MAC timer, and clears the
  // contention/NAV state, as if the node lost power mid-operation. The
  // pending-ACK counter is deliberately left alone — SIFS-deferred ACK
  // replies are raw (uncancellable) sim events that still fire, decrement
  // it, and no-op against the dead radio. Dup-suppression tables survive
  // (deterministic either way; keeping them avoids re-delivering frames the
  // upper layer consumed before the crash). Stats survive: they are
  // cumulative over the run, not per-boot.
  void crash_reset();

  // Snapshot hook: queue contents (packets by value, exact ring layout),
  // the in-flight frame, contention/NAV/ACK state, all four timers, the
  // backoff RNG, dup tables as stored, and counters. The upper-layer
  // callbacks (tx cb, rx handler, filter) are wiring, rebuilt by replay.
  void save_state(snap::Serializer& out) const;

 private:
  struct Outgoing {
    net::Packet packet;
    TxCallback cb;
    int attempts = 0;
    int cw = 0;              // current contention window
    int backoff_slots = -1;  // remaining slots (-1: draw afresh)
  };

  // net::ChannelListener (the channel calls back through one pointer).
  void on_rx_complete(const net::Packet& p, bool ok) override;
  void on_channel_activity() override;

  // Pushes radio-ON-and-not-transmitting into the channel's cached
  // listening flag; call after every transmitting_ toggle and radio state
  // change so the channel never evaluates our state lazily.
  void update_listening_();

  bool medium_free_() const;
  util::Time defer_until_() const;  // max(now, nav)
  void try_start_();
  void begin_contention_();   // (re)start DIFS + remaining backoff
  void freeze_backoff_();     // medium went busy mid-countdown
  void transmit_head_();
  void finish_head_(bool success);
  void on_ack_timeout_();
  void send_ack_(net::NodeId to);
  void check_idle_();

  sim::Simulator& sim_;
  net::Channel& channel_;
  energy::Radio& radio_;
  net::NodeId self_;
  MacParams params_;
  util::Rng rng_;

  // Send queue: a grow-only power-of-two ring. std::deque cycled a heap
  // chunk every time the queue drained (the steady state), and its empty
  // footprint is a whole chunk per node — both wrong at city scale.
  util::RingQueue<Outgoing> queue_;
  std::optional<Outgoing> in_flight_;  // head being contended/transmitted
  bool transmitting_ = false;          // our radio is emitting (data or ack)
  bool waiting_ack_ = false;
  bool in_backoff_ = false;            // countdown timer armed
  util::Time countdown_start_;         // when the current countdown began
  util::Time nav_until_;               // virtual carrier sense (NAV / EIFS)
  bool saw_busy_ = false;              // a busy period is/was in progress
  bool decoded_last_busy_ = false;     // it ended in a decodable frame
  int pending_acks_ = 0;               // scheduled/in-flight ACK replies
  sim::Timer backoff_timer_;
  sim::Timer ack_timer_;
  sim::Timer tx_end_timer_;
  sim::Timer nav_timer_;

  RxHandler rx_handler_;
  TxFilter tx_filter_;
  std::function<void()> idle_cb_;  // essat-lint: allow(hot-path-alloc)

  std::uint32_t next_mac_seq_ = 1;
  // Duplicate suppression: last mac_seq delivered per sender. Small
  // networks (below MacParams::dense_dup_table_below) use a dense per-node
  // table — one predictable load per delivery. Large ones use a growable
  // open-addressed map over the senders this node has actually heard (its
  // neighborhood), so per-node memory is O(degree) instead of O(n) — the
  // dense table alone would be 4n bytes per node, i.e. an n^2 structure.
  // The map never evicts, so both paths deliver bit-identical decisions.
  static constexpr std::uint32_t kNoSeq = 0xFFFFFFFFu;
  std::vector<std::uint32_t> last_delivered_seq_;  // dense mode (empty otherwise)
  util::FlatMap<std::uint32_t, std::uint32_t> sparse_delivered_seq_;
  const bool dense_dup_table_;

  MacStats stats_;
};

}  // namespace essat::mac
