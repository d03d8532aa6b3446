#include <gtest/gtest.h>

#include "src/energy/duty_cycle.h"
#include "src/energy/radio.h"
#include "src/sim/simulator.h"

namespace essat::energy {
namespace {

using util::Time;

RadioParams fast_params() {
  RadioParams p;
  p.t_off_on = Time::from_milliseconds(1.25);
  p.t_on_off = Time::from_milliseconds(1.25);
  return p;
}

TEST(Radio, StartsOn) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  EXPECT_EQ(r.state(), RadioState::kOn);
  EXPECT_TRUE(r.is_on());
}

TEST(Radio, TurnOffTakesTransitionTime) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  EXPECT_EQ(r.state(), RadioState::kTurningOff);
  sim.run_until(Time::from_milliseconds(1.0));
  EXPECT_EQ(r.state(), RadioState::kTurningOff);
  sim.run_until(Time::from_milliseconds(1.25));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, TurnOnTakesTransitionTime) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  r.turn_on();
  EXPECT_EQ(r.state(), RadioState::kTurningOn);
  sim.run_until(Time::from_milliseconds(3.25));
  EXPECT_EQ(r.state(), RadioState::kOn);
}

TEST(Radio, TurnOnWhileTurningOffQueues) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  r.turn_on();  // queued behind the OFF transition
  EXPECT_EQ(r.state(), RadioState::kTurningOff);
  sim.run_until(Time::from_milliseconds(1.25));
  EXPECT_EQ(r.state(), RadioState::kTurningOn);
  sim.run_until(Time::from_milliseconds(2.5));
  EXPECT_EQ(r.state(), RadioState::kOn);
}

TEST(Radio, TurnOffIgnoredUnlessOn) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  ASSERT_EQ(r.state(), RadioState::kOff);
  r.turn_off();  // no-op
  EXPECT_EQ(r.state(), RadioState::kOff);
}

// Regression: turn_off() during kTurningOn used to be silently dropped,
// leaving the radio stuck ON forever when a power manager decided to sleep
// mid-turn-on (and inflating the measured duty cycle).
TEST(Radio, TurnOffWhileTurningOnQueues) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  ASSERT_EQ(r.state(), RadioState::kOff);
  r.turn_on();
  r.turn_off();  // queued behind the ON transition
  EXPECT_EQ(r.state(), RadioState::kTurningOn);
  // The in-flight transition completes at 3.25 ms, then the latched
  // turn-off starts immediately and completes one t_on_off later.
  sim.run_until(Time::from_milliseconds(3.25));
  EXPECT_EQ(r.state(), RadioState::kTurningOff);
  sim.run_until(Time::from_milliseconds(4.5));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, TurnOnWhileTurningOnCancelsQueuedTurnOff) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  r.turn_on();
  r.turn_off();  // latched...
  r.turn_on();   // ...then cancelled: the latest intent wins
  sim.run_until(Time::from_milliseconds(10.0));
  EXPECT_EQ(r.state(), RadioState::kOn);
}

TEST(Radio, TurnOffWhileTurningOffCancelsQueuedTurnOn) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  r.turn_on();   // latched...
  r.turn_off();  // ...then cancelled: the latest intent wins
  sim.run_until(Time::from_milliseconds(10.0));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, FailDuringTurnOnTransitionKillsPendingIntents) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  r.turn_on();
  r.turn_off();  // pending_off_ latched
  sim.schedule_at(Time::from_milliseconds(2.5), [&] { r.fail(); });
  sim.run_until(Time::from_milliseconds(10.0));
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.state(), RadioState::kOff);
  r.turn_on();
  sim.run_until(Time::from_milliseconds(20.0));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, FailDuringTurnOffTransitionKillsPendingIntents) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  r.turn_on();  // pending_on_ latched
  sim.schedule_at(Time::from_milliseconds(0.5), [&] { r.fail(); });
  sim.run_until(Time::from_milliseconds(10.0));
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.state(), RadioState::kOff);
  // The cancelled transition timer must not fire, and the latched turn-on
  // must not resurrect a dead radio.
  r.turn_on();
  sim.run_until(Time::from_milliseconds(20.0));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, RedundantTurnOnIsNoop) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_on();
  EXPECT_EQ(r.state(), RadioState::kOn);
}

TEST(Radio, ObserversSeeStateChanges) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  std::vector<RadioState> seen;
  r.add_state_observer([&](RadioState s) { seen.push_back(s); });
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  r.turn_on();
  sim.run();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], RadioState::kTurningOff);
  EXPECT_EQ(seen[1], RadioState::kOff);
  EXPECT_EQ(seen[2], RadioState::kTurningOn);
  EXPECT_EQ(seen[3], RadioState::kOn);
}

TEST(Radio, DutyCycleCountsTransitionsAsActive) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.begin_measurement();
  // ON for 10 ms, then off; OFF period lasts until wake at 50 ms.
  sim.schedule_at(Time::milliseconds(10), [&] { r.turn_off(); });
  sim.schedule_at(Time::milliseconds(50), [&] { r.turn_on(); });
  sim.run_until(Time::milliseconds(100));
  // Active: [0,10) ON + [10,11.25) turning off + [50,51.25) turning on +
  // [51.25,100) ON = 10 + 1.25 + 1.25 + 48.75 = 61.25 ms of 100 ms.
  EXPECT_NEAR(r.duty_cycle(), 0.6125, 1e-9);
  EXPECT_NEAR(r.active_time().to_seconds(), 0.06125, 1e-12);
  EXPECT_NEAR(r.off_time().to_seconds(), 0.03875, 1e-12);
}

TEST(Radio, SleepIntervalsRecorded) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.begin_measurement();
  // Each OFF interval runs from reaching OFF (1.25 ms after turn_off) to the
  // turn_on call. The first sits 0.5 ms under the 25 ms edge and the second
  // 0.5 ms over the 50 ms edge, so counting a transition in or out of
  // either moves it to another bin. The third is 0.5 ms under the 2.5 ms
  // break-even time.
  sim.schedule_at(Time::milliseconds(10), [&] { r.turn_off(); });
  sim.schedule_at(Time::microseconds(35'750), [&] { r.turn_on(); });
  sim.schedule_at(Time::milliseconds(40), [&] { r.turn_off(); });
  sim.schedule_at(Time::microseconds(91'750), [&] { r.turn_on(); });
  sim.schedule_at(Time::milliseconds(100), [&] { r.turn_off(); });
  sim.schedule_at(Time::microseconds(103'250), [&] { r.turn_on(); });
  sim.run_until(Time::milliseconds(200));
  // OFF intervals: [11.25, 35.75) = 24.5 ms, [41.25, 91.75) = 50.5 ms and
  // [101.25, 103.25) = 2 ms.
  const SleepHistogram& h = r.sleep_histogram();
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 0u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.short_count(), 1u);
}

TEST(Radio, MeasurementWindowResetsAccounting) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  sim.schedule_at(Time::milliseconds(10), [&] { r.turn_off(); });
  sim.schedule_at(Time::milliseconds(100), [&] { r.begin_measurement(); });
  sim.run_until(Time::milliseconds(150));
  // Whole window spent OFF.
  EXPECT_NEAR(r.duty_cycle(), 0.0, 1e-9);
  EXPECT_EQ(r.sleep_histogram().total(), 0u);  // interval began pre-window
  sim.schedule_at(Time::milliseconds(160), [&] { r.turn_on(); });
  sim.run_until(Time::milliseconds(200));
  // The straddling OFF interval counts from the window start (100 ms): 60 ms,
  // bin 2. Counted from reaching OFF at 11.25 ms it would be 148.75 ms, bin 5.
  EXPECT_EQ(r.sleep_histogram().total(), 1u);
  EXPECT_EQ(r.sleep_histogram().count(2), 1u);
}

TEST(Radio, ZeroTransitionTimes) {
  sim::Simulator sim;
  RadioParams p;
  p.t_off_on = Time::zero();
  p.t_on_off = Time::zero();
  Radio r{sim, p};
  EXPECT_EQ(p.break_even(), Time::zero());
  r.begin_measurement();
  r.turn_off();
  sim.run_until(Time::milliseconds(2));  // zero-delay transition event fires
  EXPECT_EQ(r.state(), RadioState::kOff);
  r.turn_on();
  sim.run_until(Time::milliseconds(3));
  EXPECT_EQ(r.state(), RadioState::kOn);
  // One 2 ms interval: under the 2.5 ms break-even time, which it would not
  // be with a default 1.25 ms transition counted in.
  EXPECT_EQ(r.sleep_histogram().total(), 1u);
  EXPECT_EQ(r.sleep_histogram().count(0), 1u);
  EXPECT_EQ(r.sleep_histogram().short_count(), 1u);
}

TEST(Radio, FailForcesOffPermanently) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.fail();
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.state(), RadioState::kOff);
  r.turn_on();
  sim.run_until(Time::seconds(1));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, EnergyAccumulatesByState) {
  sim::Simulator sim;
  RadioParams p = fast_params();
  p.p_idle_mw = 10.0;
  p.p_off_mw = 0.0;
  p.p_transition_mw = 10.0;
  sim::Simulator s2;
  Radio r{s2, p};
  r.begin_measurement();
  s2.schedule_at(Time::seconds(1), [&] { r.turn_off(); });
  s2.run_until(Time::seconds(2));
  // 1 s idle @10 mW + 1.25 ms transition @10 mW, rest off @0.
  EXPECT_NEAR(r.energy_mj(), 10.0 * 1.0 + 10.0 * 0.00125, 1e-6);
}

TEST(Radio, TxRxPowerHints) {
  sim::Simulator sim;
  RadioParams p = fast_params();
  p.p_idle_mw = 10.0;
  p.p_tx_mw = 40.0;
  Radio r{sim, p};
  r.begin_measurement();
  sim.schedule_at(Time::seconds(1), [&] { r.note_tx(true); });
  sim.schedule_at(Time::seconds(2), [&] { r.note_tx(false); });
  sim.run_until(Time::seconds(3));
  EXPECT_NEAR(r.energy_mj(), 10.0 + 40.0 + 10.0, 1e-6);
}

TEST(RadioParams, BreakEvenIsSumOfTransitions) {
  RadioParams p;
  p.t_off_on = Time::from_milliseconds(1.25);
  p.t_on_off = Time::from_milliseconds(1.25);
  EXPECT_EQ(p.break_even(), Time::from_milliseconds(2.5));
}

TEST(DutyCycleSummary, AveragesRadios) {
  sim::Simulator sim;
  Radio a{sim, fast_params()};
  Radio b{sim, fast_params()};
  a.begin_measurement();
  b.begin_measurement();
  sim.schedule_at(Time::milliseconds(0), [&] { b.turn_off(); });
  sim.run_until(Time::seconds(1));
  EXPECT_NEAR(mean_duty_cycle({&a, &b}), (1.0 + 0.00125) / 2.0, 1e-6);
}

TEST(DutyCycleByGroup, GroupsCorrectly) {
  sim::Simulator sim;
  Radio a{sim, fast_params()};
  Radio b{sim, fast_params()};
  Radio c{sim, fast_params()};
  a.begin_measurement();
  b.begin_measurement();
  c.begin_measurement();
  c.turn_off();
  sim.run_until(Time::seconds(10));
  const auto by_group = duty_cycle_by_group({&a, &b, &c}, {0, 0, 1}, 2);
  ASSERT_EQ(by_group.size(), 2u);
  EXPECT_NEAR(by_group[0], 1.0, 1e-9);
  EXPECT_LT(by_group[1], 0.01);
}

TEST(DutyCycleByGroup, SizeMismatchThrows) {
  EXPECT_THROW(duty_cycle_by_group({}, {0}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace essat::energy
