#include "src/sim/timer.h"

#include <algorithm>
#include <cassert>

namespace essat::sim {

// Moving an armed Timer cancels the pending callback: the scheduled thunk
// captures the Timer's address, which a move invalidates. Arms are cheap, so
// owners re-arm after container reallocation if needed. In practice Timers
// are armed only after their owner reaches its final address.
Timer::Timer(Timer&& other) noexcept : sim_{other.sim_} { other.cancel(); }

Timer& Timer::operator=(Timer&& other) noexcept {
  if (this != &other) {
    cancel();
    sim_ = other.sim_;
    other.cancel();
  }
  return *this;
}

void Timer::arm_at(util::Time t, Callback&& cb) {
  // Guard against scheduling in the past: a re-arm computed from stale
  // state (e.g. a NAV that already expired) must not fire before events
  // already popped for `now`. Clamping matches what Simulator::schedule_at
  // always did; the assert surfaces genuinely buggy callers in debug
  // builds without changing release behavior.
  assert(t >= sim_->now() && "Timer armed in the past; clamping to now()");
  fire_time_ = std::max(t, sim_->now());
  cb_ = std::move(cb);
  // Fast path: a pending arm keeps its queue slot (and the [this] thunk in
  // it) and is only re-timed. Bit-for-bit identical ordering to the old
  // cancel+push — the re-timed entry takes a fresh insertion seq either way.
  if (id_ != kInvalidEventId && sim_->rearm(id_, fire_time_)) return;
  id_ = sim_->schedule_at(fire_time_, [this] { fire_(); });
}

void Timer::arm_in(util::Time delay, Callback&& cb) {
  arm_at(sim_->now() + delay, std::move(cb));
}

void Timer::fire_() {
  id_ = kInvalidEventId;
  // Move the callback to the stack first: it may re-arm (or destroy) this
  // Timer, which overwrites (or frees) cb_.
  Callback cb = std::move(cb_);
  cb();
}

}  // namespace essat::sim
