// Runtime batch reconfiguration: SetConfig must re-arm every pending cohort against
// the new window without dropping or double-flushing a single waiter. This is the
// safety contract the orchestrator's widen/shrink actuator leans on — it reconfigures
// live pipelines with cohorts mid-window, so every edge (shrink past the deadline,
// shrink-to-0, widen, cap shrink) has to flush exactly once.
#include "src/correctables/batch_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/correctables/consistency.h"
#include "src/correctables/operation.h"
#include "src/sim/event_loop.h"

namespace icg {
namespace {

LevelVec StrongOnly() {
  LevelVec levels;
  levels.push_back(ConsistencyLevel::kStrong);
  return levels;
}

// Records every flushed cohort with its flush time so tests can assert both delivery
// (each admitted op appears exactly once) and timing (deadlines re-derive from the
// cohort's original open time, not from the reconfiguration instant).
struct Recorder {
  struct Flushed {
    SimTime at;
    BatchScheduler::Cohort cohort;
  };

  explicit Recorder(EventLoop* loop) : loop(loop) {}

  BatchScheduler::FlushFn Fn() {
    return [this](BatchScheduler::Cohort& cohort) {
      flushed.push_back(Flushed{loop->Now(), std::move(cohort)});
    };
  }

  size_t TotalOps() const {
    size_t total = 0;
    for (const Flushed& f : flushed) total += f.cohort.ops.size();
    return total;
  }

  EventLoop* loop;
  std::vector<Flushed> flushed;
};

void AdmitGets(BatchScheduler& scheduler, int count, const std::string& prefix) {
  for (int i = 0; i < count; ++i) {
    scheduler.Admit(/*is_read=*/true, "scope", StrongOnly(),
                    Operation::Get(prefix + std::to_string(i)),
                    std::make_shared<int>(i));
  }
}

TEST(BatchReconfig, ShrinkMidCohortReArmsFromTheOriginalOpenTime) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{/*batch_window=*/Millis(20), /*max_batch_ops=*/128});

  loop.Schedule(0, [&] { AdmitGets(scheduler, 3, "k"); });
  // At t=2ms, shrink 20ms -> 5ms: the cohort opened at t=0, so its new deadline is
  // t=5ms — NOT 2ms+5ms=7ms, and certainly not the original 20ms.
  loop.Schedule(Millis(2), [&] {
    scheduler.SetConfig(BatchConfig{Millis(5), 128});
  });
  loop.RunUntil(Millis(30));

  ASSERT_EQ(recorder.flushed.size(), 1u);
  EXPECT_EQ(recorder.flushed[0].at, Millis(5));
  EXPECT_EQ(recorder.flushed[0].cohort.ops.size(), 3u);
  EXPECT_EQ(scheduler.pending_cohorts(), 0u);
}

TEST(BatchReconfig, ShrinkToZeroFlushesPendingCohortsSynchronously) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(20), 128});

  loop.Schedule(0, [&] {
    AdmitGets(scheduler, 4, "r");
    scheduler.Admit(/*is_read=*/false, "scope", StrongOnly(), Operation::Put("w0", "v"),
                    std::make_shared<int>(0));
  });
  loop.Schedule(Millis(3), [&] {
    // Window collapses to 0 with two cohorts (reads + writes) mid-window: both must
    // flush inside this SetConfig call, not at some later timer.
    scheduler.SetConfig(BatchConfig{0, 128});
    EXPECT_EQ(scheduler.pending_cohorts(), 0u);
    EXPECT_EQ(recorder.TotalOps(), 5u);
  });
  loop.RunUntil(Millis(30));

  ASSERT_EQ(recorder.flushed.size(), 2u);
  EXPECT_EQ(recorder.flushed[0].at, Millis(3));
  EXPECT_EQ(recorder.flushed[1].at, Millis(3));
  EXPECT_EQ(recorder.TotalOps(), 5u);  // nothing dropped, nothing flushed twice
}

TEST(BatchReconfig, ShrinkPastTheDeadlineFlushesImmediately) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(20), 128});

  loop.Schedule(0, [&] { AdmitGets(scheduler, 2, "k"); });
  // At t=8ms, shrink to 5ms: the re-derived deadline (opened + 5ms = 5ms) is already
  // in the past, so the cohort flushes synchronously rather than waiting or dying.
  loop.Schedule(Millis(8), [&] { scheduler.SetConfig(BatchConfig{Millis(5), 128}); });
  loop.RunUntil(Millis(30));

  ASSERT_EQ(recorder.flushed.size(), 1u);
  EXPECT_EQ(recorder.flushed[0].at, Millis(8));
  EXPECT_EQ(recorder.flushed[0].cohort.ops.size(), 2u);
}

TEST(BatchReconfig, WidenMidCohortExtendsTheDeadline) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(1), 128});

  loop.Schedule(0, [&] {
    AdmitGets(scheduler, 2, "k");
    // Widen 1ms -> 20ms in the same tick the cohort opened: the old 1ms timer must be
    // cancelled (no early flush) and the cohort holds until opened + 20ms.
    scheduler.SetConfig(BatchConfig{Millis(20), 128});
  });
  loop.Schedule(Millis(10), [&] { AdmitGets(scheduler, 1, "late"); });
  loop.RunUntil(Millis(40));

  ASSERT_EQ(recorder.flushed.size(), 1u);
  EXPECT_EQ(recorder.flushed[0].at, Millis(20));
  EXPECT_EQ(recorder.flushed[0].cohort.ops.size(), 3u);  // the late admission rode along
}

TEST(BatchReconfig, ShrinkingTheOpsCapFlushesOversizedCohorts) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(20), 128});

  loop.Schedule(0, [&] { AdmitGets(scheduler, 6, "k"); });
  loop.Schedule(Millis(2), [&] {
    // Same window, tighter cap: a pending cohort already at/over the new cap must not
    // sit out the rest of the window holding more ops than the cap allows.
    scheduler.SetConfig(BatchConfig{Millis(20), /*max_batch_ops=*/4});
  });
  loop.RunUntil(Millis(40));

  ASSERT_EQ(recorder.flushed.size(), 1u);
  EXPECT_EQ(recorder.flushed[0].at, Millis(2));
  EXPECT_EQ(recorder.flushed[0].cohort.ops.size(), 6u);
}

TEST(BatchReconfig, RepeatedReconfigurationNeverDropsOrDuplicatesWaiters) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(10), 128});

  // A churn storm: admissions interleaved with widens and shrinks every millisecond.
  // Whatever the timers did, exactly the 12 admitted ops come out exactly once.
  const std::vector<SimDuration> windows = {Millis(10), Millis(3),  Millis(25),
                                            Millis(1),  Millis(15), 0};
  for (int t = 0; t < 6; ++t) {
    loop.Schedule(Millis(t), [&scheduler, t] {
      AdmitGets(scheduler, 2, "t" + std::to_string(t) + "-");
    });
    loop.Schedule(Millis(t) + 500, [&scheduler, &windows, t] {
      scheduler.SetConfig(BatchConfig{windows[static_cast<size_t>(t)], 128});
    });
  }
  loop.RunUntil(Millis(100));

  EXPECT_EQ(recorder.TotalOps(), 12u);
  EXPECT_EQ(scheduler.pending_cohorts(), 0u);
  EXPECT_EQ(scheduler.pending_ops(), 0u);
}

// FlushAll and a shrink-to-0 flush pending cohorts in one fixed order, whatever order
// they opened in: reads before writes, then by scope, then by level names. Launch order
// decides message order, so it must not depend on how the cohorts are stored.
TEST(BatchReconfig, BarrierFlushesFollowKindScopeAndLevelOrder) {
  LevelVec icg;
  icg.push_back(ConsistencyLevel::kWeak);
  icg.push_back(ConsistencyLevel::kStrong);
  struct Cohort {
    bool is_read;
    std::string scope;
    LevelVec levels;
  };
  const std::vector<Cohort> opening = {{false, "s1", StrongOnly()},
                                       {true, "s2", StrongOnly()},
                                       {true, "s1", icg},
                                       {true, "s1", StrongOnly()},
                                       {true, "s10", StrongOnly()}};
  const std::vector<size_t> flush_order = {3, 2, 4, 1, 0};  // indices into `opening`

  for (const bool shrink_to_zero : {false, true}) {
    SCOPED_TRACE(shrink_to_zero ? "SetConfig to 0" : "FlushAll");
    EventLoop loop;
    Recorder recorder(&loop);
    BatchScheduler scheduler(&loop, recorder.Fn());
    scheduler.SetConfig(BatchConfig{Millis(20), 128});
    for (const Cohort& cohort : opening) {
      scheduler.Admit(cohort.is_read, cohort.scope, cohort.levels, Operation::Get("k"),
                      std::make_shared<int>(0));
    }
    if (shrink_to_zero) {
      scheduler.SetConfig(BatchConfig{0, 128});
    } else {
      scheduler.FlushAll();
    }
    ASSERT_EQ(recorder.flushed.size(), opening.size());
    for (size_t i = 0; i < flush_order.size(); ++i) {
      const Cohort& want = opening[flush_order[i]];
      const BatchScheduler::Cohort& got = recorder.flushed[i].cohort;
      EXPECT_EQ(got.is_read, want.is_read) << "flush " << i;
      EXPECT_EQ(got.scope, want.scope) << "flush " << i;
      EXPECT_EQ(got.levels, want.levels) << "flush " << i;
    }
  }
}

TEST(BatchReconfig, SetConfigWithNoPendingCohortsOnlyChangesFutureAdmissions) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(5), 128});
  EXPECT_TRUE(scheduler.enabled());
  scheduler.SetConfig(BatchConfig{0, 128});
  EXPECT_FALSE(scheduler.enabled());
  EXPECT_EQ(recorder.flushed.size(), 0u);
}

}  // namespace
}  // namespace icg
