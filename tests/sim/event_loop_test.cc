#include "src/sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

namespace icg {
namespace {

TEST(EventLoop, StartsAtZero) {
  EventLoop loop;
  EXPECT_EQ(loop.Now(), 0);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Millis(30), [&]() { order.push_back(3); });
  loop.Schedule(Millis(10), [&]() { order.push_back(1); });
  loop.Schedule(Millis(20), [&]() { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), Millis(30));
}

TEST(EventLoop, SameTimeEventsRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(Millis(5), [&order, i]() { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoop, NowAdvancesToEventTime) {
  EventLoop loop;
  SimTime seen = -1;
  loop.Schedule(Micros(123), [&]() { seen = loop.Now(); });
  loop.Run();
  EXPECT_EQ(seen, Micros(123));
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  std::vector<SimTime> times;
  loop.Schedule(Millis(1), [&]() {
    times.push_back(loop.Now());
    loop.Schedule(Millis(1), [&]() { times.push_back(loop.Now()); });
  });
  loop.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Millis(1));
  EXPECT_EQ(times[1], Millis(2));
}

TEST(EventLoop, ZeroDelayRunsAtCurrentTime) {
  EventLoop loop;
  bool ran = false;
  loop.Schedule(0, [&]() { ran = true; });
  EXPECT_TRUE(loop.RunOne());
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.Now(), 0);
}

TEST(EventLoop, RunOneReturnsFalseWhenEmpty) {
  EventLoop loop;
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const TimerId id = loop.Schedule(Millis(1), [&]() { ran = true; });
  loop.Cancel(id);
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelUnknownIdIsNoop) {
  EventLoop loop;
  loop.Cancel(99999);
  bool ran = false;
  loop.Schedule(Millis(1), [&]() { ran = true; });
  loop.Run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, CancelOneOfMany) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Millis(1), [&]() { order.push_back(1); });
  const TimerId id = loop.Schedule(Millis(2), [&]() { order.push_back(2); });
  loop.Schedule(Millis(3), [&]() { order.push_back(3); });
  loop.Cancel(id);
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventLoop, RunUntilStopsAtBoundaryInclusive) {
  EventLoop loop;
  std::vector<int> ran;
  loop.Schedule(Millis(10), [&]() { ran.push_back(10); });
  loop.Schedule(Millis(20), [&]() { ran.push_back(20); });
  loop.Schedule(Millis(30), [&]() { ran.push_back(30); });
  loop.RunUntil(Millis(20));
  EXPECT_EQ(ran, (std::vector<int>{10, 20}));
  EXPECT_EQ(loop.Now(), Millis(20));
  loop.Run();
  EXPECT_EQ(ran, (std::vector<int>{10, 20, 30}));
}

TEST(EventLoop, RunUntilAdvancesTimeEvenWithoutEvents) {
  EventLoop loop;
  loop.RunUntil(Seconds(5));
  EXPECT_EQ(loop.Now(), Seconds(5));
}

TEST(EventLoop, RunForIsRelative) {
  EventLoop loop;
  loop.RunFor(Millis(10));
  loop.RunFor(Millis(10));
  EXPECT_EQ(loop.Now(), Millis(20));
}

TEST(EventLoop, ScheduleAtAbsoluteTime) {
  EventLoop loop;
  SimTime seen = -1;
  loop.ScheduleAt(Millis(7), [&]() { seen = loop.Now(); });
  loop.Run();
  EXPECT_EQ(seen, Millis(7));
}

TEST(EventLoop, EventsProcessedCounts) {
  EventLoop loop;
  for (int i = 0; i < 5; ++i) {
    loop.Schedule(i, []() {});
  }
  loop.Run();
  EXPECT_EQ(loop.events_processed(), 5);
}

TEST(EventLoop, CancelledEventNotCounted) {
  EventLoop loop;
  const TimerId id = loop.Schedule(1, []() {});
  loop.Cancel(id);
  loop.Run();
  EXPECT_EQ(loop.events_processed(), 0);
}

TEST(EventLoop, CancelAfterFireDoesNotLeakTombstones) {
  EventLoop loop;
  // Cancelling ids that already fired used to insert a tombstone forever; with more
  // tombstones than queued events, pending_events() (queue size minus tombstones)
  // underflowed size_t to an astronomically large value.
  const TimerId a = loop.Schedule(Millis(1), []() {});
  const TimerId b = loop.Schedule(Millis(2), []() {});
  loop.Run();
  loop.Cancel(a);
  loop.Cancel(b);
  loop.Cancel(a);  // repeated cancels of fired ids must stay no-ops
  EXPECT_EQ(loop.pending_events(), 0u);

  int ran = 0;
  loop.Schedule(Millis(1), [&]() { ran++; });
  EXPECT_EQ(loop.pending_events(), 1u);  // previously underflowed here
  loop.Run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, CancelOfFiredTimerFromInsideACallback) {
  EventLoop loop;
  // Mid-run cancels of ids that already fired this run (including the currently
  // executing one) must be no-ops that neither disturb still-pending timers nor skew
  // pending_events() accounting.
  std::vector<int> order;
  TimerId first = 0;
  TimerId second = 0;
  first = loop.Schedule(Micros(10), [&]() { order.push_back(1); });
  second = loop.Schedule(Micros(20), [&]() {
    order.push_back(2);
    loop.Cancel(first);   // already fired
    loop.Cancel(second);  // currently executing
  });
  loop.Schedule(Micros(30), [&]() { order.push_back(3); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.events_processed(), 3);

  // The fired ids stay dead no-ops even once new timers occupy the same wheel region.
  int late = 0;
  loop.Schedule(Micros(10), [&]() { late++; });
  loop.Cancel(first);
  loop.Cancel(second);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_EQ(late, 1);
}

TEST(EventLoop, PendingEventsExcludesCancelled) {
  EventLoop loop;
  const TimerId id = loop.Schedule(Millis(1), []() {});
  loop.Schedule(Millis(2), []() {});
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.Cancel(id);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Cancel(id);  // double cancel of a pending id counts once
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, CascadeAcrossWheelLevelsPreservesOrder) {
  EventLoop loop;
  std::vector<int> order;
  // One event per wheel level: 10us (L0), 1ms (L1), 100ms (L2), 5s (L3), 20min (L4),
  // 2h (L5) — interleaved with near-boundary times that force multi-step cascades.
  const SimTime times[] = {
      Micros(10),     Micros(63),      Micros(64),     Micros(4095),
      Micros(4096),   Millis(1),       Millis(100),    Micros(262143),
      Micros(262144), Seconds(5),      Seconds(1200),  Seconds(7200),
  };
  std::vector<SimTime> sorted(std::begin(times), std::end(times));
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < static_cast<int>(std::size(times)); ++i) {
    loop.ScheduleAt(times[i], [&order, i]() { order.push_back(i); });
  }
  std::vector<int> expect;
  for (const SimTime t : sorted) {
    for (int i = 0; i < static_cast<int>(std::size(times)); ++i) {
      if (times[i] == t) {
        expect.push_back(i);
      }
    }
  }
  loop.Run();
  EXPECT_EQ(order, expect);
  EXPECT_EQ(loop.Now(), Seconds(7200));
}

TEST(EventLoop, SameTimeFifoSurvivesCascade) {
  EventLoop loop;
  // Two events at the same far-future instant scheduled from different wheel epochs:
  // the first goes in while the wheel is at t=0 (lands in a high level), the second
  // after the wheel advanced (lands lower). Cascading must not reorder them.
  std::vector<int> order;
  const SimTime target = Millis(50);
  loop.Schedule(target, [&]() { order.push_back(1); });
  loop.Schedule(Millis(10), [&]() {
    loop.ScheduleAt(target, [&]() { order.push_back(2); });
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, OverflowHorizonEvents) {
  EventLoop loop;
  // Beyond the top wheel level's span (~19.1h of virtual time) events sit in the
  // overflow list and must still fire in order.
  std::vector<int> order;
  loop.ScheduleAt(Seconds(100000), [&]() { order.push_back(2); });  // ~27.8h
  loop.ScheduleAt(Seconds(90000), [&]() { order.push_back(1); });
  loop.ScheduleAt(Seconds(110000), [&]() { order.push_back(3); });
  loop.Schedule(Millis(1), [&]() { order.push_back(0); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.Now(), Seconds(110000));
}

TEST(EventLoop, CancelEventParkedInHighLevel) {
  EventLoop loop;
  bool ran = false;
  const TimerId id = loop.ScheduleAt(Seconds(5), [&]() { ran = true; });  // L3 territory
  loop.RunUntil(Seconds(1));
  loop.Cancel(id);
  EXPECT_EQ(loop.pending_events(), 0u);
  loop.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.events_processed(), 0);
}

TEST(EventLoop, StaleIdAfterSlotReuseIsNoop) {
  EventLoop loop;
  int ran = 0;
  const TimerId old_id = loop.Schedule(Millis(1), [&]() { ran += 1; });
  loop.Run();
  // The pool slot is recycled for the next timer under a fresh generation; cancelling
  // with the stale id must not kill the new occupant.
  loop.Schedule(Millis(1), [&]() { ran += 10; });
  loop.Cancel(old_id);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_EQ(ran, 11);
}

TEST(EventLoop, ScheduleAfterLongIdleRunUntil) {
  EventLoop loop;
  // An event-free RunUntil drags now_ far past the wheel's position; a fresh schedule
  // must re-anchor instead of landing in a distant level.
  loop.RunUntil(Seconds(50000));
  std::vector<int> order;
  loop.Schedule(Micros(5), [&]() { order.push_back(1); });
  loop.Schedule(Millis(3), [&]() { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.Now(), Seconds(50000) + Millis(3));
}

TEST(EventLoop, ManyEventsStressOrdering) {
  EventLoop loop;
  SimTime last = -1;
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    // Pseudo-random but deterministic delays.
    loop.Schedule((i * 7919) % 1000, [&, i]() {
      if (loop.Now() < last) {
        monotonic = false;
      }
      last = loop.Now();
    });
  }
  loop.Run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(loop.events_processed(), 10000);
}

}  // namespace
}  // namespace icg
