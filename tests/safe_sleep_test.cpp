#include <gtest/gtest.h>

#include <memory>

#include "src/core/safe_sleep.h"
#include "src/net/channel.h"

namespace essat::core {
namespace {

using energy::RadioState;
using util::Time;

// Minimal stack: one node with a real radio and MAC on a 2-node channel.
struct SsRig {
  explicit SsRig(Time t_be = Time::from_milliseconds(2.5), bool enabled = true)
      : topo{net::Topology::line(2, 100.0, 125.0)}, channel{sim, topo} {
    energy::RadioParams rp;
    rp.t_off_on = t_be / 2;
    rp.t_on_off = t_be / 2;
    radio = std::make_unique<energy::Radio>(sim, rp);
    mac = std::make_unique<mac::CsmaMac>(sim, channel, *radio, 0, mac::MacParams{},
                                         util::Rng{1});
    ss = std::make_unique<SafeSleep>(sim, *radio, *mac,
                                     SafeSleepParams{t_be, enabled});
  }

  sim::Simulator sim;
  net::Topology topo;
  net::Channel channel;
  std::unique_ptr<energy::Radio> radio;
  std::unique_ptr<mac::CsmaMac> mac;
  std::unique_ptr<SafeSleep> ss;
};

TEST(SafeSleep, SleepsWhenNextExpectationIsFar) {
  SsRig rig;
  rig.ss->update_next_send(0, Time::seconds(10));
  EXPECT_EQ(rig.radio->state(), RadioState::kTurningOff);
  rig.sim.run_until(Time::seconds(1));
  EXPECT_EQ(rig.radio->state(), RadioState::kOff);
  EXPECT_EQ(rig.ss->sleeps_initiated(), 1u);
}

TEST(SafeSleep, WakesExactlyAtExpectation) {
  // "the node sleeps until t_wakeup - t_OFF->ON such that there is enough
  // time to wake up" — the radio must be ON at exactly t_wakeup.
  SsRig rig;
  rig.ss->update_next_send(0, Time::seconds(10));
  rig.sim.run_until(Time::seconds(10) - Time::nanoseconds(1));
  EXPECT_NE(rig.radio->state(), RadioState::kOn);
  rig.sim.run_until(Time::seconds(10));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
}

TEST(SafeSleep, NoSleepWithinBreakEvenTime) {
  // t_sleep <= t_BE: "SS puts the node to sleep only if the node ... remains
  // free for longer than the break-even time".
  SsRig rig{Time::from_milliseconds(10)};
  rig.sim.run_until(Time::seconds(1));
  rig.ss->update_next_send(0, rig.sim.now() + Time::from_milliseconds(8));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
  EXPECT_EQ(rig.ss->sleeps_skipped_short(), 1u);
  EXPECT_EQ(rig.ss->sleeps_initiated(), 0u);
}

TEST(SafeSleep, StaysAwakeWhileExpectationOverdue) {
  SsRig rig;
  rig.ss->update_next_receive(0, 1, Time::seconds(1));
  rig.sim.run_until(Time::seconds(1));          // wakes for the reception
  rig.sim.run_until(Time::seconds(5));          // report never arrives
  // The node keeps listening "from the time the data report is expected
  // until the data report arrives" (§4.1).
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
}

TEST(SafeSleep, WakeupIsMinAcrossQueriesAndChildren) {
  SsRig rig;
  rig.ss->update_next_send(0, Time::seconds(30));
  rig.ss->update_next_receive(0, 1, Time::seconds(20));
  rig.ss->update_next_receive(1, 1, Time::seconds(15));
  EXPECT_EQ(rig.ss->next_wakeup(), Time::seconds(15));
  rig.sim.run_until(Time::seconds(14));
  EXPECT_EQ(rig.radio->state(), RadioState::kOff);
  rig.sim.run_until(Time::seconds(15));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
}

TEST(SafeSleep, EarlierExpectationWhileAsleepPullsWakeForward) {
  SsRig rig;
  rig.ss->update_next_send(0, Time::seconds(100));
  rig.sim.run_until(Time::seconds(1));
  ASSERT_EQ(rig.radio->state(), RadioState::kOff);
  // A newly registered query expects activity at t=5.
  rig.ss->update_next_send(1, Time::seconds(5));
  rig.sim.run_until(Time::seconds(5));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
}

TEST(SafeSleep, SleepsForeverWithNoExpectations) {
  SsRig rig;
  rig.ss->update_next_send(0, Time::seconds(5));
  rig.sim.run_until(Time::seconds(5) + Time::milliseconds(1));
  ASSERT_EQ(rig.radio->state(), RadioState::kOn);
  rig.ss->erase_query(0);
  rig.sim.run_until(Time::seconds(20));
  EXPECT_EQ(rig.radio->state(), RadioState::kOff);
  EXPECT_EQ(rig.ss->next_wakeup(), Time::max());
}

TEST(SafeSleep, EraseChildDropsExpectation) {
  SsRig rig;
  rig.ss->update_next_receive(0, 1, Time::seconds(5));
  rig.ss->update_next_send(0, Time::seconds(50));
  rig.ss->erase_child(0, 1);
  EXPECT_EQ(rig.ss->next_wakeup(), Time::seconds(50));
}

TEST(SafeSleep, EraseQueryDropsAllItsChildren) {
  SsRig rig;
  rig.ss->update_next_receive(0, 1, Time::seconds(5));
  rig.ss->update_next_receive(0, 2, Time::seconds(6));
  rig.ss->update_next_receive(1, 1, Time::seconds(7));
  rig.ss->erase_query(0);
  EXPECT_EQ(rig.ss->next_wakeup(), Time::seconds(7));
}

TEST(SafeSleep, DisabledKeepsRadioOn) {
  SsRig rig{Time::from_milliseconds(2.5), /*enabled=*/false};
  rig.ss->update_next_send(0, Time::seconds(100));
  rig.sim.run_until(Time::seconds(10));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);  // SPAN backbone behavior
}

TEST(SafeSleep, StaysOnDuringSetupSlot) {
  // "During the setup slot, all nodes keep their radio on even if SS does
  // not expect any data reports" (§4.1).
  SsRig rig;
  rig.ss->set_setup_end(Time::seconds(5));
  rig.ss->update_next_send(0, Time::seconds(100));
  rig.sim.run_until(Time::seconds(4));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
  rig.sim.run_until(Time::seconds(6));
  EXPECT_EQ(rig.radio->state(), RadioState::kOff);
}

TEST(SafeSleep, DoesNotSleepWhileMacBusy) {
  SsRig rig;
  // Queue a frame toward node 1 whose radio never answers — MAC stays busy
  // through its retries; SS must not power down mid-operation.
  net::DataHeader h;
  rig.mac->send(net::make_data_packet(0, 1, h));
  rig.ss->update_next_send(0, Time::seconds(100));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
  rig.sim.run_until(Time::seconds(99));
  // After the MAC drained (send failed, no receiver), SS slept.
  EXPECT_EQ(rig.radio->state(), RadioState::kOff);
}

TEST(SafeSleep, ZeroBreakEvenSleepsThroughAnyGap) {
  SsRig rig{Time::zero()};
  rig.sim.run_until(Time::seconds(1));
  rig.ss->update_next_send(0, rig.sim.now() + Time::microseconds(500));
  // t_sleep > t_BE = 0: sleeps even for half a millisecond.
  EXPECT_EQ(rig.ss->sleeps_initiated(), 1u);
  rig.sim.run_until(rig.sim.now() + Time::milliseconds(1));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
  // One 0.5 ms sleep: bin 0, and shorter than a 2.5 ms break-even time.
  const energy::SleepHistogram& h = rig.radio->sleep_histogram();
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.short_count(), 1u);
}

// A drifted clock that would fire the wake-up at or before now keeps the
// radio on: sleeping would wake at once, and the wake-up's re-check would
// sleep again at the same instant, without end.
TEST(SafeSleep, DriftedWakeupAtOrBeforeNowKeepsRadioOn) {
  // The same 2 ms gap on a perfect clock sleeps: T_BE is 0.
  SsRig perfect{Time::zero()};
  perfect.sim.run_until(Time::seconds(1));
  perfect.ss->update_next_send(0, perfect.sim.now() + Time::milliseconds(2));
  EXPECT_EQ(perfect.ss->sleeps_initiated(), 1u);

  SsRig rig{Time::zero()};
  rig.ss->set_wake_adjust([](Time t) { return t - Time::milliseconds(5); });
  rig.sim.run_until(Time::seconds(1));
  rig.ss->update_next_send(0, rig.sim.now() + Time::milliseconds(2));
  ASSERT_EQ(rig.ss->sleeps_initiated(), 0u);
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
  rig.sim.run_until(rig.sim.now() + Time::milliseconds(3));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
  EXPECT_EQ(rig.ss->sleeps_initiated(), 0u);
}

TEST(SafeSleep, SupersededWakeupGoesBackToSleep) {
  SsRig rig;
  rig.ss->update_next_send(0, Time::seconds(10));
  // While asleep, the expectation moves out to t=14 (e.g. the query's
  // schedule advanced via a timeout path).
  rig.sim.run_until(Time::seconds(2));
  rig.ss->update_next_send(0, Time::seconds(14));
  rig.sim.run_until(Time::seconds(11));
  // Woke at 10 for the stale expectation, re-checked, and slept again.
  EXPECT_EQ(rig.radio->state(), RadioState::kOff);
  rig.sim.run_until(Time::seconds(14));
  EXPECT_EQ(rig.radio->state(), RadioState::kOn);
  EXPECT_EQ(rig.ss->sleeps_initiated(), 2u);
}

}  // namespace
}  // namespace essat::core
