#include "src/energy/radio.h"

#include "src/snap/field_codec.h"
#include "src/snap/timer_codec.h"

namespace essat::energy {

Radio::Radio(sim::Simulator& sim, RadioParams params)
    : sim_{sim},
      params_{params},
      transition_timer_{sim},
      window_start_{sim.now()},
      segment_start_{sim.now()} {}

void Radio::add_state_observer(std::function<void(RadioState)> observer) {
  observers_.push_back(std::move(observer));
}

double Radio::current_power_mw_() const {
  switch (state_) {
    case RadioState::kOff:
      return params_.p_off_mw;
    case RadioState::kTurningOn:
    case RadioState::kTurningOff:
      return params_.p_transition_mw;
    case RadioState::kOn:
      if (tx_active_) return params_.p_tx_mw;
      if (rx_active_) return params_.p_rx_mw;
      return params_.p_idle_mw;
  }
  return 0.0;
}

void Radio::account_to_now_() {
  const util::Time now = sim_.now();
  const util::Time dt = now - segment_start_;
  if (dt > util::Time::zero()) {
    if (state_ == RadioState::kOff) {
      off_accum_ += dt;
    } else {
      on_accum_ += dt;
    }
    const double spent_mj = current_power_mw_() * dt.to_seconds();
    energy_mj_ += spent_mj;
    lifetime_energy_mj_ += spent_mj;
  }
  segment_start_ = now;
}

void Radio::enter_(RadioState next) {
  account_to_now_();
  const RadioState prev = state_;
  state_ = next;
  ESSAT_TRACE(sim_, obs::TraceType::kRadioState, trace_id_,
              static_cast<std::uint16_t>(static_cast<std::uint16_t>(prev) << 8 |
                                         static_cast<std::uint16_t>(next)),
              0, 0);

  // Sleep-interval bookkeeping: an OFF interval spans entering OFF to
  // leaving OFF.
  if (next == RadioState::kOff) {
    off_enter_time_ = sim_.now();
    in_off_interval_ = true;
  } else if (prev == RadioState::kOff && in_off_interval_) {
    if (off_enter_time_ >= window_start_) {
      sleep_hist_.add((sim_.now() - off_enter_time_).to_seconds());
    }
    in_off_interval_ = false;
  }

  for (const auto& obs : observers_) obs(next);
}

void Radio::turn_on() {
  if (failed_) return;
  switch (state_) {
    case RadioState::kOn:
      return;
    case RadioState::kTurningOn:
      pending_off_ = false;  // the latest intent wins
      return;
    case RadioState::kTurningOff:
      pending_on_ = true;
      return;
    case RadioState::kOff:
      enter_(RadioState::kTurningOn);
      transition_timer_.arm_in(params_.t_off_on, [this] {
        if (failed_) return;
        enter_(RadioState::kOn);
        if (pending_off_) {
          pending_off_ = false;
          turn_off();
        }
      });
      return;
  }
}

void Radio::turn_off() {
  if (failed_) return;
  switch (state_) {
    case RadioState::kOff:
      return;
    case RadioState::kTurningOff:
      pending_on_ = false;  // the latest intent wins
      return;
    case RadioState::kTurningOn:
      // Mirror of turn_on() during kTurningOff: latch and complete the
      // in-flight transition first. Dropping the request here left the
      // radio stuck ON whenever a policy decided to sleep mid-turn-on.
      pending_off_ = true;
      return;
    case RadioState::kOn:
      enter_(RadioState::kTurningOff);
      transition_timer_.arm_in(params_.t_on_off, [this] {
        if (failed_) return;
        enter_(RadioState::kOff);
        if (pending_on_) {
          pending_on_ = false;
          turn_on();
        }
      });
      return;
  }
}

void Radio::fail() {
  if (failed_) return;
  transition_timer_.cancel();
  pending_on_ = false;
  pending_off_ = false;
  enter_(RadioState::kOff);
  failed_ = true;
  in_off_interval_ = false;  // dead time is not a sleep interval
}

void Radio::crash() {
  fail();  // no-op if already failed; the latch clears below still apply
  tx_active_ = false;
  rx_active_ = false;
}

void Radio::restore() {
  if (!failed_) return;
  account_to_now_();  // close the outage segment at p_off power
  failed_ = false;
}

void Radio::note_tx(bool active) {
  account_to_now_();
  tx_active_ = active;
}

void Radio::note_rx(bool active) {
  account_to_now_();
  rx_active_ = active;
}

void Radio::begin_measurement() {
  account_to_now_();
  window_start_ = sim_.now();
  off_accum_ = util::Time::zero();
  on_accum_ = util::Time::zero();
  energy_mj_ = 0.0;
  sleep_hist_ = SleepHistogram{};
  // A sleep interval straddling the window start is counted from the window
  // start.
  if (in_off_interval_) off_enter_time_ = sim_.now();
}

util::Time Radio::active_time() const {
  const_cast<Radio*>(this)->account_to_now_();
  return on_accum_;
}

util::Time Radio::off_time() const {
  const_cast<Radio*>(this)->account_to_now_();
  return off_accum_;
}

double Radio::duty_cycle() const {
  const util::Time active = active_time();
  const util::Time total = active + off_time();
  if (total <= util::Time::zero()) return 0.0;
  return active / total;
}

double Radio::energy_mj() const {
  const_cast<Radio*>(this)->account_to_now_();
  return energy_mj_;
}

double Radio::lifetime_energy_mj() const {
  const_cast<Radio*>(this)->account_to_now_();
  return lifetime_energy_mj_;
}

void Radio::save_state(snap::Serializer& out) const {
  out.begin("RADI");
  out.u8(static_cast<std::uint8_t>(state_));
  out.boolean(failed_);
  out.boolean(pending_on_);
  out.boolean(pending_off_);
  out.boolean(tx_active_);
  out.boolean(rx_active_);
  snap::save_timer(out, transition_timer_);
  out.time(window_start_);
  out.time(segment_start_);
  out.time(off_accum_);
  out.time(on_accum_);
  out.f64(energy_mj_);
  out.f64(lifetime_energy_mj_);
  out.time(off_enter_time_);
  out.boolean(in_off_interval_);
  snap::Writer{out}(sleep_hist_);
  out.end();
}

}  // namespace essat::energy
