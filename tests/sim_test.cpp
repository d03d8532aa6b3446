#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"
#include "src/util/rng.h"

namespace essat::sim {
namespace {

using util::Time;

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(Time::seconds(3), [&] { fired.push_back(3); });
  q.push(Time::seconds(1), [&] { fired.push_back(1); });
  q.push(Time::seconds(2), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(Time::seconds(1), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSuppressesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(Time::seconds(1), [&] { fired = true; });
  q.push(Time::seconds(2), [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), Time::seconds(2));
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.push(Time::seconds(1), [] {});
  q.cancel(999999);
  q.cancel(kInvalidEventId);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EmptyAfterAllCancelled) {
  EventQueue q;
  const EventId a = q.push(Time::seconds(1), [] {});
  const EventId b = q.push(Time::seconds(2), [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// The slot-indexed queue recycles slots through a free list with a
// generation counter: a handle from a fired/cancelled event must never
// cancel the event that later reuses its slot.
TEST(EventQueue, StaleHandleCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId a = q.push(Time::seconds(1), [] {});
  q.pop().second();            // slot of `a` is released...
  bool fired = false;
  q.push(Time::seconds(2), [&] { fired = true; });  // ...and likely reused
  q.cancel(a);                 // stale handle: must be a no-op
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelChurnKeepsOrderAndCount) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.push(Time::milliseconds((i * 37) % 500), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 500u);
  Time last = Time::min();
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, last);
    last = t;
    ++popped;
  }
  EXPECT_EQ(popped, 500u);
  // Double-cancel and cancel-after-fire are no-ops.
  for (EventId id : ids) q.cancel(id);
  EXPECT_EQ(q.size(), 0u);
}

// rearm() must behave exactly like cancel+push with the same callback: the
// retimed event keeps its id, fires at the new time, and takes a fresh
// same-timestamp FIFO position.
TEST(EventQueue, RearmRetimesWithoutNewId) {
  EventQueue q;
  std::vector<int> fired;
  const EventId id = q.push(Time::seconds(1), [&] { fired.push_back(1); });
  EXPECT_TRUE(q.rearm(id, Time::seconds(3)));
  q.push(Time::seconds(2), [&] { fired.push_back(2); });
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RearmKeepsSameTimestampFifoOrder) {
  // a is re-armed to the same time as b AFTER b was pushed: like
  // cancel+push, a must now fire after b.
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.push(Time::seconds(1), [&] { fired.push_back(1); });
  q.push(Time::seconds(1), [&] { fired.push_back(2); });
  EXPECT_TRUE(q.rearm(a, Time::seconds(1)));
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RearmedEventCanStillBeCancelled) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(Time::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(q.rearm(id, Time::seconds(5)));
  q.cancel(id);  // the original id stays valid across rearms
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, RearmStaleIdIsRejected) {
  EventQueue q;
  const EventId id = q.push(Time::seconds(1), [] {});
  q.pop().second();
  EXPECT_FALSE(q.rearm(id, Time::seconds(2)));  // already fired
  EXPECT_FALSE(q.rearm(kInvalidEventId, Time::seconds(2)));
  const EventId c = q.push(Time::seconds(1), [] {});
  q.cancel(c);
  EXPECT_FALSE(q.rearm(c, Time::seconds(2)));  // cancelled
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyRearmsLeaveNoResidue) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(Time::seconds(1), [&] { ++fired; });
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(q.rearm(id, Time::milliseconds(900 + i)));
  }
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PeakLiveTracksHighWaterMark) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(Time::seconds(i + 1), [] {});
  while (!q.empty()) q.pop().second();
  q.push(Time::seconds(1), [] {});
  EXPECT_EQ(q.peak_live(), 10u);
}

TEST(EventQueue, ReserveDoesNotDisturbBehavior) {
  EventQueue q;
  q.reserve(1024);
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    q.push(Time::milliseconds((i * 37) % 50), [&fired, i] { fired.push_back(i); });
  }
  std::size_t popped = 0;
  Time last = Time::min();
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, last);
    last = t;
    cb();
    ++popped;
  }
  EXPECT_EQ(popped, 100u);
}

// Reference model for the A/B tests below: the live events in a flat list,
// with the queue's cancel and rearm semantics, popped by a linear scan for
// the least (time, seq).
class RefQueue {
 public:
  void push(std::int64_t time_ns, int tag) {
    live_.push_back(Event{time_ns, next_seq_++, tag});
  }
  bool holds(int tag) const { return find_(tag) < live_.size(); }
  void cancel(int tag) {
    const std::size_t i = find_(tag);
    if (i < live_.size()) {
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  // Retimes a live event with a fresh seq, as cancel+push would.
  void rearm(int tag, std::int64_t time_ns) {
    const std::size_t i = find_(tag);
    if (i == live_.size()) return;
    live_[i].time_ns = time_ns;
    live_[i].seq = next_seq_++;
  }
  // Removes the least (time, seq) and returns its tag. Precondition:
  // !empty().
  int pop_min() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < live_.size(); ++i) {
      if (live_[i].time_ns < live_[best].time_ns ||
          (live_[i].time_ns == live_[best].time_ns &&
           live_[i].seq < live_[best].seq)) {
        best = i;
      }
    }
    const int tag = live_[best].tag;
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(best));
    return tag;
  }
  bool empty() const { return live_.empty(); }
  std::size_t size() const { return live_.size(); }

 private:
  struct Event {
    std::int64_t time_ns;
    std::uint64_t seq;
    int tag;
  };
  std::size_t find_(int tag) const {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].tag == tag) return i;
    }
    return live_.size();
  }
  std::vector<Event> live_;
  std::uint64_t next_seq_ = 0;
};

// Randomized A/B against the reference model: the calendar-wheel queue
// must pop the exact same sequence for arbitrary interleavings of push,
// cancel, rearm, and pop across bucket and epoch boundaries.
TEST(EventQueue, MatchesReferenceModelOnRandomOps) {
  util::Rng rng{1234};
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue q;
    RefQueue ref;
    std::vector<std::pair<EventId, int>> handles;
    std::vector<int> got, want;
    int next_tag = 0;
    std::int64_t now_ns = 0;

    for (int op = 0; op < 400; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      if (kind <= 4 || ref.empty()) {
        // Push at a time spread across buckets and epochs (0..200 ms),
        // never in the past.
        const std::int64_t t =
            now_ns + rng.uniform_int(0, 200'000'000);
        const int tag = next_tag++;
        const EventId id =
            q.push(Time::nanoseconds(t), [tag, &got] { got.push_back(tag); });
        ref.push(t, tag);
        handles.emplace_back(id, tag);
      } else if (kind <= 6) {
        // Cancel a random (possibly stale) handle.
        const auto& [id, tag] =
            handles[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(handles.size()) - 1))];
        q.cancel(id);
        ref.cancel(tag);
      } else if (kind == 7) {
        // Rearm a random handle; mirrors cancel+push with a fresh seq.
        const auto& [id, tag] =
            handles[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(handles.size()) - 1))];
        const std::int64_t t =
            now_ns + rng.uniform_int(0, 200'000'000);
        if (q.rearm(id, Time::nanoseconds(t))) ref.rearm(tag, t);
      } else {
        // Pop one event; virtual time advances to it.
        ASSERT_FALSE(q.empty());
        auto [t, cb] = q.pop();
        now_ns = t.ns();
        cb();
        want.push_back(ref.pop_min());
      }
    }
    while (!q.empty()) {
      q.pop().second();
      want.push_back(ref.pop_min());
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

// The same A/B where simulations actually stress the wheel: clusters. Most
// pushes and rearms land on a few hot instants (many events at one ns, so
// one bucket), which sit at the drain cursor, later in its epoch, or past
// it; the rest land just behind the cursor or anywhere in the next few
// epochs. Cancels and rearms hit the clusters, and pops run in bursts that
// carry the cursor across epoch boundaries.
TEST(EventQueue, MatchesReferenceModelOnClusteredOps) {
  constexpr std::int64_t kBucketNs = std::int64_t{1} << 14;
  constexpr std::int64_t kEpochNs = std::int64_t{1} << 24;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng{seed};
    EventQueue q;
    RefQueue ref;
    std::vector<std::pair<EventId, int>> handles;
    std::vector<int> got, want;
    int next_tag = 0;
    std::int64_t cursor_ns = 0;  // latest popped time

    // A hot instant the cursor has passed is replaced by a new one at the
    // cursor, later in its bucket, later in its epoch, or 1-3 epochs out.
    std::int64_t hot[4] = {0, 0, 0, 0};
    auto fresh_hot = [&]() -> std::int64_t {
      const std::int64_t where = rng.uniform_int(0, 3);
      if (where == 0) return cursor_ns;
      if (where == 1) return cursor_ns + rng.uniform_int(0, kBucketNs - 1);
      if (where == 2) return cursor_ns + rng.uniform_int(kBucketNs, kEpochNs);
      return cursor_ns + rng.uniform_int(kEpochNs, 3 * kEpochNs);
    };
    auto pick_time = [&]() -> std::int64_t {
      const std::int64_t r = rng.uniform_int(0, 9);
      if (r < 7) {
        std::int64_t& h = hot[rng.uniform_int(0, 3)];
        if (h < cursor_ns) h = fresh_hot();
        return h;
      }
      if (r == 7) {  // behind the cursor, within one bucket of it
        return std::max<std::int64_t>(
            0, cursor_ns - rng.uniform_int(1, kBucketNs));
      }
      return cursor_ns + rng.uniform_int(0, 3 * kEpochNs);
    };
    // Mostly recent handles, which are likely still pending in a cluster.
    auto pick_handle = [&]() -> const std::pair<EventId, int>& {
      const auto n = static_cast<std::int64_t>(handles.size());
      const std::int64_t lo =
          rng.uniform_int(0, 3) == 0 ? 0 : std::max<std::int64_t>(0, n - 32);
      return handles[static_cast<std::size_t>(rng.uniform_int(lo, n - 1))];
    };

    for (int op = 0; op < 3000; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 19);
      if (kind < 9 || ref.empty()) {
        const std::int64_t t = pick_time();
        const int tag = next_tag++;
        const EventId id =
            q.push(Time::nanoseconds(t), [tag, &got] { got.push_back(tag); });
        ref.push(t, tag);
        handles.emplace_back(id, tag);
      } else if (kind < 12) {
        const auto [id, tag] = pick_handle();
        q.cancel(id);
        ref.cancel(tag);
      } else if (kind < 15) {
        // Rearm, refused exactly when the reference no longer holds the
        // event.
        const auto [id, tag] = pick_handle();
        const std::int64_t t = pick_time();
        ASSERT_EQ(q.rearm(id, Time::nanoseconds(t)), ref.holds(tag));
        ref.rearm(tag, t);
      } else {
        // A burst of pops; virtual time advances with them.
        const std::int64_t burst = rng.uniform_int(1, 24);
        for (std::int64_t k = 0; k < burst && !ref.empty(); ++k) {
          ASSERT_FALSE(q.empty());
          auto [t, cb] = q.pop();
          cursor_ns = std::max(cursor_ns, t.ns());
          cb();
          want.push_back(ref.pop_min());
        }
      }
      ASSERT_EQ(q.size(), ref.size()) << "seed " << seed << " op " << op;
    }
    while (!q.empty()) {
      q.pop().second();
      want.push_back(ref.pop_min());
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_GT(cursor_ns, 4 * kEpochNs) << "the cursor crossed few epochs";
  }
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time::zero());
  std::vector<Time> seen;
  sim.schedule_at(Time::seconds(5), [&] { seen.push_back(sim.now()); });
  sim.schedule_at(Time::seconds(2), [&] { seen.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Time::seconds(2));
  EXPECT_EQ(seen[1], Time::seconds(5));
  EXPECT_EQ(sim.now(), Time::seconds(5));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired_at = Time::zero();
  sim.schedule_at(Time::seconds(1), [&] {
    sim.schedule_in(Time::seconds(2), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(3));
}

TEST(Simulator, PastSchedulesClampToNow) {
  Simulator sim;
  Time fired_at = Time::min();
  sim.schedule_at(Time::seconds(5), [&] {
    sim.schedule_at(Time::seconds(1), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(5));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::seconds(1), [&] { ++fired; });
  sim.schedule_at(Time::seconds(2), [&] { ++fired; });
  sim.schedule_at(Time::seconds(3), [&] { ++fired; });
  sim.run_until(Time::seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Time::seconds(2));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(sim.now(), Time::seconds(10));
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(Time::seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(Time::seconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(Time::seconds(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, StressManyEventsKeepOrder) {
  Simulator sim;
  Time last = Time::min();
  bool ordered = true;
  for (int i = 0; i < 10000; ++i) {
    const Time t = Time::milliseconds((i * 7919) % 10000);
    sim.schedule_at(t, [&, t] {
      if (sim.now() < last) ordered = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

TEST(Timer, FiresAtArmedTime) {
  Simulator sim;
  Timer timer{sim};
  Time fired_at = Time::min();
  timer.arm_at(Time::seconds(2), [&] { fired_at = sim.now(); });
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.fire_time(), Time::seconds(2));
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(2));
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator sim;
  Timer timer{sim};
  int fired = 0;
  timer.arm_at(Time::seconds(1), [&] { fired = 1; });
  timer.arm_at(Time::seconds(2), [&] { fired = 2; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Timer, CancelPreventsFire) {
  Simulator sim;
  Timer timer{sim};
  bool fired = false;
  timer.arm_at(Time::seconds(1), [&] { fired = true; });
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, DestructionCancels) {
  Simulator sim;
  bool fired = false;
  {
    Timer timer{sim};
    timer.arm_at(Time::seconds(1), [&] { fired = true; });
  }
  sim.run();
  EXPECT_FALSE(fired);
}

// Arming with a stale (past) fire time clamps to now(): the callback runs
// at the current virtual time, never "before" events already executed. In
// debug builds the same call additionally trips an assert to surface the
// buggy caller (see the death test below).
TEST(Timer, PastArmClampsToNow) {
  Simulator sim;
  Timer timer{sim};
  Time fired_at = Time::min();
  sim.schedule_at(Time::seconds(5), [&] {
    // Arming exactly at now() is legal in every build mode.
    timer.arm_at(sim.now(), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(5));
}

TEST(TimerDeathTest, ArmStrictlyInPastAssertsInDebug) {
  EXPECT_DEBUG_DEATH(
      {
        Simulator sim;
        Timer timer{sim};
        sim.schedule_at(Time::seconds(5), [] {});
        sim.run();
        timer.arm_at(Time::seconds(1), [] {});  // 4 s in the past
        sim.run();
      },
      "Timer armed in the past");
}

TEST(Simulator, RearmClampsToNow) {
  // A Timer re-armed from inside an event with a stale target must fire at
  // now(), not violate the clock's monotonicity.
  Simulator sim;
  Timer timer{sim};
  Time fired_at = Time::min();
  timer.arm_at(Time::seconds(10), [&] { fired_at = sim.now(); });
  sim.schedule_at(Time::seconds(3), [&] {
    // Retime the pending arm to "now" (the earliest legal target).
    timer.arm_at(sim.now(), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(3));
}

TEST(Timer, ArmInsideCallback) {
  Simulator sim;
  Timer timer{sim};
  std::vector<Time> fires;
  timer.arm_in(Time::seconds(1), [&] {
    fires.push_back(sim.now());
    timer.arm_in(Time::seconds(1), [&] { fires.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[1], Time::seconds(2));
}

}  // namespace
}  // namespace essat::sim
