#include "src/sim/service_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_loop.h"

namespace icg {
namespace {

TEST(ServiceQueue, SingleJobTakesServiceTime) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  SimTime done_at = -1;
  q.Submit(Millis(3), [&]() { done_at = loop.Now(); });
  loop.Run();
  EXPECT_EQ(done_at, Millis(3));
}

TEST(ServiceQueue, JobsQueueFifo) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    q.Submit(Millis(2), [&]() { completions.push_back(loop.Now()); });
  }
  loop.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Millis(2));
  EXPECT_EQ(completions[1], Millis(4));
  EXPECT_EQ(completions[2], Millis(6));
}

TEST(ServiceQueue, IdleServerStartsImmediately) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  SimTime first = -1;
  SimTime second = -1;
  q.Submit(Millis(1), [&]() { first = loop.Now(); });
  loop.Run();
  // Server idle for 10 ms, then a new job.
  loop.RunUntil(Millis(11));
  q.Submit(Millis(1), [&]() { second = loop.Now(); });
  loop.Run();
  EXPECT_EQ(first, Millis(1));
  EXPECT_EQ(second, Millis(12));  // starts at 11, not at busy_until=1
}

TEST(ServiceQueue, ZeroServiceTimeCompletesNow) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  SimTime done_at = -1;
  q.Submit(0, [&]() { done_at = loop.Now(); });
  loop.Run();
  EXPECT_EQ(done_at, 0);
}

TEST(ServiceQueue, CountsSubmittedAndCompleted) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  q.Submit(Millis(1), []() {});
  q.Submit(Millis(1), []() {});
  EXPECT_EQ(q.submitted(), 2);
  EXPECT_EQ(q.completed(), 0);
  EXPECT_EQ(q.InFlight(), 2);
  loop.Run();
  EXPECT_EQ(q.completed(), 2);
  EXPECT_EQ(q.InFlight(), 0);
}

TEST(ServiceQueue, BusyTimeAccumulates) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  q.Submit(Millis(3), []() {});
  q.Submit(Millis(4), []() {});
  loop.Run();
  EXPECT_EQ(q.total_busy_time(), Millis(7));
  EXPECT_DOUBLE_EQ(q.Utilization(Millis(14)), 0.5);
}

TEST(ServiceQueue, ResetStatsKeepsSchedule) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  q.Submit(Millis(1), []() {});
  loop.Run();
  q.ResetStats();
  EXPECT_EQ(q.submitted(), 0);
  EXPECT_EQ(q.total_busy_time(), 0);
  // busy_until_ is preserved: the server's timeline is physical, stats are per-window.
  EXPECT_EQ(q.busy_until(), Millis(1));
}

TEST(ServiceQueue, ResetStatsMidFlightKeepsInFlightExact) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  q.Submit(Millis(1), []() {});
  q.Submit(Millis(1), []() {});
  q.ResetStats();
  EXPECT_EQ(q.InFlight(), 2);  // the reset starts a stats window, it kills no job
  loop.Run();
  EXPECT_EQ(q.InFlight(), 0);
  EXPECT_EQ(q.submitted(), 0);
  EXPECT_EQ(q.completed(), 2);  // both completions land in the new window
}

TEST(ServiceQueue, SaturationDelaysGrowLinearly) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  // Offered load 2x capacity: 100 jobs of 1 ms arriving instantly.
  std::vector<SimTime> completions;
  for (int i = 0; i < 100; ++i) {
    q.Submit(Millis(1), [&]() { completions.push_back(loop.Now()); });
  }
  loop.Run();
  EXPECT_EQ(completions.back(), Millis(100));  // pure serial service
}

TEST(ServiceQueue, InterleavedSubmissionRespectsArrivalTime) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  std::vector<SimTime> completions;
  q.Submit(Millis(5), [&]() { completions.push_back(loop.Now()); });
  loop.Schedule(Millis(2), [&]() {
    q.Submit(Millis(5), [&]() { completions.push_back(loop.Now()); });
  });
  loop.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], Millis(5));
  EXPECT_EQ(completions[1], Millis(10));  // waits for the first job
}

TEST(ServiceQueue, CancelPendingAbandonsInFlightJobs) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  int ran = 0;
  q.Submit(Millis(5), [&]() { ran++; });
  q.Submit(Millis(5), [&]() { ran++; });
  EXPECT_EQ(q.InFlight(), 2);
  q.CancelPending();
  EXPECT_EQ(q.InFlight(), 0);
  EXPECT_EQ(q.cancellations(), 1);
  loop.Run();  // the stale completion events drain but no-op
  EXPECT_EQ(ran, 0);
}

TEST(ServiceQueue, CancelPendingFreesServerImmediately) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  q.Submit(Millis(50), []() {});
  q.CancelPending();
  EXPECT_EQ(q.busy_until(), 0);
  // A job submitted after the kill starts from idle, not behind the dead backlog.
  SimTime completed_at = -1;
  q.Submit(Millis(1), [&]() { completed_at = loop.Now(); });
  loop.Run();
  EXPECT_EQ(completed_at, Millis(1));
}

TEST(ServiceQueue, JobsSubmittedAfterCancelStillComplete) {
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  int ran = 0;
  q.Submit(Millis(5), [&]() { ran++; });
  loop.RunFor(Millis(1));
  q.CancelPending();
  q.Submit(Millis(2), [&]() { ran += 10; });
  loop.Run();
  EXPECT_EQ(ran, 10);  // only the post-cancel generation runs
  EXPECT_EQ(q.completed(), 1 + 0);
}

}  // namespace
}  // namespace icg
