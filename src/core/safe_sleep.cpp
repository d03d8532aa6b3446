#include "src/core/safe_sleep.h"

#include <algorithm>

#include "src/snap/serializer.h"
#include "src/snap/timer_codec.h"

namespace essat::core {

SafeSleep::SafeSleep(sim::Simulator& sim, energy::Radio& radio, mac::CsmaMac& mac,
                     SafeSleepParams params)
    : sim_{sim},
      radio_{radio},
      mac_{mac},
      params_{params},
      setup_end_{sim.now()},
      wake_timer_{sim} {
  mac_.set_idle_callback([this] { check_state(); });
  // Re-evaluate on wake: if the expectation that scheduled this wake-up was
  // superseded by a later one, go straight back to sleep.
  radio_.add_state_observer([this](energy::RadioState s) {
    if (s == energy::RadioState::kOn) check_state();
  });
}

void SafeSleep::set_setup_end(util::Time t) {
  setup_end_ = t;
  if (t > sim_.now()) {
    sim_.schedule_at(t, [this] { check_state(); });
  }
}

void SafeSleep::update_next_send(net::QueryId q, util::Time t) {
  next_send_[q] = t;
  check_state();
}

void SafeSleep::update_next_receive(net::QueryId q, net::NodeId child, util::Time t) {
  next_receive_[{q, child}] = t;
  check_state();
}

void SafeSleep::erase_child(net::QueryId q, net::NodeId child) {
  next_receive_.erase({q, child});
  check_state();
}

void SafeSleep::erase_query(net::QueryId q) {
  next_send_.erase(q);
  for (auto it = next_receive_.begin(); it != next_receive_.end();) {
    if (it->first.first == q) {
      it = next_receive_.erase(it);
    } else {
      ++it;
    }
  }
  check_state();
}

util::Time SafeSleep::next_wakeup() const {
  util::Time t = util::Time::max();
  for (const auto& [q, s] : next_send_) t = std::min(t, s);
  for (const auto& [qc, r] : next_receive_) t = std::min(t, r);
  return t;
}

void SafeSleep::deactivate() {
  active_ = false;
  wake_timer_.cancel();
}

void SafeSleep::check_state() {
  if (!active_ || !params_.enabled || radio_.failed()) return;
  const util::Time now = sim_.now();
  if (now < setup_end_) return;  // setup slot: stay on

  const util::Time t_wakeup = next_wakeup();

  if (!radio_.is_on()) {
    // Already sleeping (or in transition). A new expectation may have been
    // registered that is earlier than the scheduled wake-up: bring the
    // wake-up forward so the no-delay-penalty guarantee holds.
    if (t_wakeup == util::Time::max()) return;
    util::Time wake_at = std::max(now, t_wakeup - radio_.params().t_off_on);
    if (wake_adjust_) wake_at = std::max(now, wake_adjust_(wake_at));
    if (!wake_timer_.armed() || wake_at < wake_timer_.fire_time()) {
      wake_timer_.arm_at(wake_at, [this] { radio_.turn_on(); });
    }
    return;
  }

  if (!mac_.idle()) return;    // frames queued/in flight: busy
  if (t_wakeup <= now) return; // busy: a report is due or overdue

  if (t_wakeup == util::Time::max()) {
    // Nothing is ever expected (no queries routed through this node):
    // sleep with no wake-up scheduled; a future registration re-checks.
    ESSAT_TRACE(sim_, obs::TraceType::kSleepStart, mac_.self(), 0, 0, 0);
    radio_.turn_off();
    ++sleeps_;
    wake_timer_.cancel();
    return;
  }

  // Wake early enough that the OFF->ON transition completes at t_wakeup.
  // A drifted clock (wake_adjust_) misses that target — the delivery
  // penalty that mispredicted wake-ups cost is exactly what the fault
  // engine's drift axis measures.
  const util::Time t_sleep = t_wakeup - now;
  util::Time wake_at = std::max(now, t_wakeup - radio_.params().t_off_on);
  if (wake_adjust_) wake_at = wake_adjust_(wake_at);
  // Stay on through a gap not worth the transition cost, and through one
  // the drifted clock says is already over: sleeping would wake at once,
  // and the wake-up's re-check would sleep again at the same instant.
  if (t_sleep <= params_.t_be || (wake_adjust_ && wake_at <= now)) {
    ++short_skips_;
    ESSAT_TRACE(sim_, obs::TraceType::kSleepSkip, mac_.self(), 0, 0,
                static_cast<std::uint64_t>(t_sleep.ns()));
    return;
  }
  ESSAT_TRACE(sim_, obs::TraceType::kSleepStart, mac_.self(), 0,
              static_cast<std::uint64_t>(t_wakeup.ns()),
              static_cast<std::uint64_t>(t_sleep.ns()));
  radio_.turn_off();
  ++sleeps_;
  wake_timer_.arm_at(wake_at, [this] { radio_.turn_on(); });
}

void SafeSleep::save_state(snap::Serializer& out) const {
  out.begin("SSLP");
  out.time(setup_end_);
  out.u64(next_send_.size());
  for (const auto& [q, t] : next_send_) {
    out.i32(q);
    out.time(t);
  }
  out.u64(next_receive_.size());
  for (const auto& [key, t] : next_receive_) {
    out.i32(key.first);
    out.i32(key.second);
    out.time(t);
  }
  snap::save_timer(out, wake_timer_);
  out.boolean(active_);
  out.u64(sleeps_);
  out.u64(short_skips_);
  out.end();
}

}  // namespace essat::core
