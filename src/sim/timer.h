// Cancellable one-shot timer with RAII semantics: destroying (or re-arming)
// a Timer cancels any pending callback, so dangling fires are impossible as
// long as the Timer outlives its owner’s interest in the event.
//
// Hot-path shape: the queue slot holds only a thin [this] thunk; the user
// callback lives in the Timer itself (cb_). Re-arming an armed Timer takes
// the EventQueue::rearm fast path — the slot, its thunk, and the EventId
// are reused; only the wheel position changes — instead of cancel+push.
// A cancelled Timer gives its slot back, so arming it again is a push.
// Arm times in the past are clamped to now() (debug-asserted), so a stale
// re-arm can never fire out of order.
#pragma once

#include "src/sim/simulator.h"

namespace essat::sim {

class Timer {
 public:
  using Callback = Simulator::Callback;

  explicit Timer(Simulator& sim) : sim_{&sim} {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&& other) noexcept;
  Timer& operator=(Timer&& other) noexcept;

  // (Re)arms the timer to fire at absolute time `t` (clamped to now()). A
  // pending arm is retimed in place; its queued slot is reused.
  void arm_at(util::Time t, Callback&& cb);
  void arm_in(util::Time delay, Callback&& cb);
  // Inline: the MAC cancels timers on nearly every state transition, most
  // of them already-disarmed no-ops that must cost two branches, not a
  // cross-TU call.
  void cancel() {
    if (id_ != kInvalidEventId) {
      sim_->cancel(id_);
      id_ = kInvalidEventId;
    }
    cb_ = nullptr;  // free the capture eagerly, as the old closure-owning arm did
  }

  bool armed() const { return id_ != kInvalidEventId; }
  // Absolute fire time of the pending arm; meaningful only when armed().
  util::Time fire_time() const { return fire_time_; }

 private:
  void fire_();

  Simulator* sim_;
  EventId id_ = kInvalidEventId;
  util::Time fire_time_ = util::Time::zero();
  Callback cb_;
};

}  // namespace essat::sim
