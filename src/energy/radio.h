// Radio power-state machine with per-state time/energy accounting.
//
// States: OFF <-> (transitions) <-> ON. Transitions take t_OFF_ON / t_ON_OFF
// (MICA2: ~1.25 ms each way, giving the paper's typical break-even time of
// 2.5 ms). Duty cycle counts every non-OFF nanosecond as active, transitions
// included, matching the paper's definition ("percentage of time a node
// remains active").
//
// Safe Sleep's correctness argument (§4.1) rests on two properties exposed
// here: turn_on() completes exactly t_OFF_ON after it is called, and each
// completed OFF interval is counted in the radio's Fig. 8 SleepHistogram.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/energy/sleep_histogram.h"
#include "src/sim/timer.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::energy {

enum class RadioState : std::uint8_t { kOff, kTurningOn, kOn, kTurningOff };

struct RadioParams {
  util::Time t_off_on = util::Time::from_milliseconds(1.25);
  util::Time t_on_off = util::Time::from_milliseconds(1.25);
  // Power draw in milliwatts, loosely CC1000/MICA2-class. Used for the
  // optional energy-in-millijoules metric; duty cycle does not depend on it.
  double p_idle_mw = 24.0;
  double p_rx_mw = 29.0;
  double p_tx_mw = 42.0;
  double p_off_mw = 0.003;
  double p_transition_mw = 24.0;

  // Break-even time: minimum free interval worth sleeping through (§4.1).
  // When the transition power is no higher than the active power this equals
  // t_on_off + t_off_on [Benini et al.]; callers may override (Fig. 9 sweeps
  // T_BE independently of the transition latencies).
  util::Time break_even() const { return t_off_on + t_on_off; }
};

class Radio {
 public:
  Radio(sim::Simulator& sim, RadioParams params);

  RadioState state() const { return state_; }
  bool is_on() const { return state_ == RadioState::kOn; }
  bool is_off() const { return state_ == RadioState::kOff; }
  bool failed() const { return failed_; }
  const RadioParams& params() const { return params_; }

  // Begins the OFF -> ON transition; completes after t_off_on. If called
  // while turning off, the turn-on is queued to start when OFF is reached;
  // if called while turning on, any queued turn-off is cancelled (the
  // latest intent wins). No-op when already on, or failed.
  void turn_on();
  // Begins the ON -> OFF transition; completes after t_on_off. If called
  // while turning on, the turn-off is queued to start when ON is reached
  // (a transition is never aborted mid-flight); if called while turning
  // off, any queued turn-on is cancelled. No-op when already off, or
  // failed.
  void turn_off();
  // Permanent node death (failure injection): radio drops to OFF and ignores
  // all future turn_on() calls.
  void fail();
  // Churn-style crash: fail() plus clearing the MAC activity latches. The
  // MAC's tx-end timer dies with the node, so nothing else would ever clear
  // note_tx/note_rx and the radio would bill TX power across the outage.
  void crash();
  // Revives a crashed radio (node restart). The radio stays OFF; callers
  // turn_on() it as part of rebuilding the node's stack.
  void restore();

  // Observer invoked on every completed state change (new state passed).
  // Multiple observers are supported (Safe Sleep, MAC, protocols).
  void add_state_observer(std::function<void(RadioState)> observer);

  // Node id stamped on kRadioState trace records. The radio itself is
  // node-agnostic; the harness labels it at assembly time (-1 = unlabelled).
  void set_trace_id(std::int32_t node) { trace_id_ = node; }

  // Energy-accounting hints from the MAC: while flagged, ON time is charged
  // at TX/RX power instead of idle-listen power.
  void note_tx(bool active);
  void note_rx(bool active);

  // --- Accounting -------------------------------------------------------
  // Restarts the measurement window at the current simulation time.
  void begin_measurement();
  // Time in the window the radio was not OFF (transitions count as active).
  util::Time active_time() const;
  // Time in the window the radio was OFF.
  util::Time off_time() const;
  // active / (active + off); 0 if the window is empty.
  double duty_cycle() const;
  // Energy spent in the window, in millijoules.
  double energy_mj() const;
  // Completed OFF intervals (entering OFF to leaving OFF) counted within
  // the measurement window; one straddling the window start counts from it.
  // Paper Fig. 8.
  const SleepHistogram& sleep_histogram() const { return sleep_hist_; }

  // Snapshot hook: the full state machine plus accounting, with the
  // transition timer as (armed, fire time) — observers are wiring, rebuilt
  // by replay.
  void save_state(snap::Serializer& out) const;

 private:
  void enter_(RadioState next);
  void account_to_now_();
  double current_power_mw_() const;

  sim::Simulator& sim_;
  RadioParams params_;
  std::int32_t trace_id_ = -1;
  RadioState state_ = RadioState::kOn;
  bool failed_ = false;
  bool pending_on_ = false;   // turn_on() arrived while turning off
  bool pending_off_ = false;  // turn_off() arrived while turning on
  bool tx_active_ = false;
  bool rx_active_ = false;
  sim::Timer transition_timer_;
  std::vector<std::function<void(RadioState)>> observers_;

  // Accounting state.
  util::Time window_start_;
  util::Time segment_start_;       // start of the current (state, tx/rx) segment
  util::Time off_accum_;
  util::Time on_accum_;            // everything non-OFF
  double energy_mj_ = 0.0;
  util::Time off_enter_time_;      // start of the open sleep interval
  bool in_off_interval_ = false;
  SleepHistogram sleep_hist_;
};

}  // namespace essat::energy
