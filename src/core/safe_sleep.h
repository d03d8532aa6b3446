// Safe Sleep (SS) — the paper's local sleep-scheduling algorithm (§4.1,
// Fig. 1).
//
// SS tracks, per query, the next expected send time (q.snext) and the next
// expected reception time from each child (q.rnext(c)), both supplied
// incrementally by the traffic shaper. After every update it re-evaluates:
//
//   t_wakeup = min({q.snext ∀q} ∪ {q.rnext(c) ∀q,c})
//   t_sleep  = t_wakeup - now
//   if (t_sleep > t_BE) sleep, waking at t_wakeup - t_OFF_ON
//
// so the radio is back ON exactly when the first expected communication is
// due — "no energy or delay penalties are incurred by turning the node off".
// Two additional guards beyond Fig. 1's pseudocode keep the guarantee in a
// real stack: SS never sleeps while the MAC has frames queued or in flight,
// and never before the query-setup slot ends (all radios stay on during
// setup so requests can flood).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "src/energy/radio.h"
#include "src/mac/csma.h"
#include "src/query/traffic_shaper.h"
#include "src/sim/timer.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::core {

struct SafeSleepParams {
  // Break-even time t_BE: minimum free interval for which powering down
  // costs no energy or delay (§4.1, [Benini et al.]). The paper's Fig. 9
  // sweeps this in {0, 2.5, 10, 40} ms.
  util::Time t_be = util::Time::from_milliseconds(2.5);
  // Disabled SS keeps the radio always on (SPAN backbone nodes).
  bool enabled = true;
};

class SafeSleep final : public query::ExpectedTimeSink {
 public:
  SafeSleep(sim::Simulator& sim, energy::Radio& radio, mac::CsmaMac& mac,
            SafeSleepParams params);

  // All radios stay on until the end of the setup slot ("during the setup
  // slot, all nodes keep their radio on even if SS does not expect any data
  // reports", §4.1).
  void set_setup_end(util::Time t);

  // --- ExpectedTimeSink -------------------------------------------------
  void update_next_send(net::QueryId q, util::Time t) override;
  void update_next_receive(net::QueryId q, net::NodeId child, util::Time t) override;
  void erase_child(net::QueryId q, net::NodeId child) override;
  void erase_query(net::QueryId q) override;

  // Re-evaluates the sleep decision (Fig. 1's checkState). Invoked by every
  // update and by the MAC idle callback; safe to call at any time.
  void check_state();

  // Clock-drift hook (fault engine): maps an intended wake-up time to the
  // time this node's skewed clock actually fires it. Applied wherever the
  // wake timer is armed (never earlier than now). A radio that is on stays
  // on when the drifted wake-up falls at or before now: the node's own
  // clock says the communication is already due. Null means a perfect
  // clock — the exact pre-hook behavior.
  // essat-lint: allow(hot-path-alloc) — installed once per node at setup
  void set_wake_adjust(std::function<util::Time(util::Time)> adjust) {
    wake_adjust_ = std::move(adjust);
  }

  // Permanently retires this scheduler (node crash). The radio observer and
  // MAC idle callback may keep firing — a replacement SafeSleep is built on
  // restart while this one stays alive in its policy's ownership list — so
  // a deactivated instance must never arm its timer or touch the radio.
  void deactivate();

  // Earliest expected communication across all tracked queries, or
  // Time::max() if nothing is expected.
  util::Time next_wakeup() const;

  // Statistics.
  std::uint64_t sleeps_initiated() const { return sleeps_; }
  // Free intervals that were too short to sleep through (<= t_BE): the
  // penalty-avoidance events Fig. 9 quantifies. Under drift, also those the
  // drifted clock says are already over.
  std::uint64_t sleeps_skipped_short() const { return short_skips_; }

  const SafeSleepParams& params() const { return params_; }

  // Snapshot hook: the expected-time tables, wake timer, and counters.
  void save_state(snap::Serializer& out) const;

 private:
  sim::Simulator& sim_;
  energy::Radio& radio_;
  mac::CsmaMac& mac_;
  SafeSleepParams params_;
  util::Time setup_end_;

  std::map<net::QueryId, util::Time> next_send_;
  std::map<std::pair<net::QueryId, net::NodeId>, util::Time> next_receive_;
  sim::Timer wake_timer_;
  std::function<util::Time(util::Time)> wake_adjust_;  // essat-lint: allow(hot-path-alloc)
  bool active_ = true;
  std::uint64_t sleeps_ = 0;
  std::uint64_t short_skips_ = 0;
};

}  // namespace essat::core
