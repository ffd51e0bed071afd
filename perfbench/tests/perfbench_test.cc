// Tests of the benchmark's own machinery: the open-loop generator, the max-rate search,
// percentile and sample-count reporting, and every output checker against hand-built
// bad histories.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/checks.h"
#include "perfbench/src/load.h"
#include "perfbench/src/stats.h"

namespace perfbench {
namespace {

constexpr int kWeak = 1;
constexpr int kStrong = 3;

TEST(PoissonArrivals, SeededRateLandsWithinTolerance) {
  // 1000 ops/s over 100 s of virtual time: 100k expected arrivals, sd ~316.
  PoissonArrivals arrivals(MixSeed(7, 1), 1000.0, 0);
  int64_t count = 0;
  while (arrivals.next() < 100'000'000) {
    arrivals.Pop();
    count++;
  }
  EXPECT_NEAR(static_cast<double>(count), 100000.0, 1500.0);
}

TEST(PoissonArrivals, SameSeedSameStreamOtherSeedOtherStream) {
  PoissonArrivals a(MixSeed(3, 1), 500.0, 1000);
  PoissonArrivals b(MixSeed(3, 1), 500.0, 1000);
  PoissonArrivals c(MixSeed(4, 1), 500.0, 1000);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
    ASSERT_GE(a.next(), 1000);
    differs = differs || a.next() != c.next();
    a.Pop();
    b.Pop();
    c.Pop();
  }
  EXPECT_TRUE(differs);
}

TEST(PoissonArrivals, ArrivalsNeverGoBackwards) {
  PoissonArrivals a(MixSeed(9, 2), 20000.0, 0);
  int64_t last = a.next();
  for (int i = 0; i < 10000; ++i) {
    a.Pop();
    ASSERT_GE(a.next(), last);
    last = a.next();
  }
}

TEST(SearchMaxRate, FindsTheThresholdDeterministically) {
  auto met = [](double rate) { return rate <= 1234.0; };
  const RateSearch first = SearchMaxRate(1000.0, met);
  const RateSearch second = SearchMaxRate(1000.0, met);
  EXPECT_LE(first.max_rate, 1234.0);
  EXPECT_GT(first.max_rate, 1234.0 * 0.99);
  ASSERT_EQ(first.probes.size(), second.probes.size());
  for (size_t i = 0; i < first.probes.size(); ++i) {
    EXPECT_EQ(first.probes[i], second.probes[i]);
  }
}

TEST(SearchMaxRate, SearchesDownwardWhenTheStartMisses) {
  const RateSearch s = SearchMaxRate(1000.0, [](double rate) { return rate <= 300.0; });
  EXPECT_LE(s.max_rate, 300.0);
  EXPECT_GT(s.max_rate, 290.0);
}

TEST(SearchMaxRate, TerminatesWhenNothingOrEverythingIsMet) {
  const RateSearch never = SearchMaxRate(1000.0, [](double) { return false; }, 1.25, 8, 5);
  EXPECT_EQ(never.max_rate, 0.0);
  EXPECT_EQ(never.probes.size(), 9u);  // the start plus eight steps down
  const RateSearch always = SearchMaxRate(1000.0, [](double) { return true; }, 1.25, 8, 5);
  EXPECT_DOUBLE_EQ(always.max_rate, 1000.0 * std::pow(1.25, 8));
  EXPECT_EQ(always.probes.size(), 9u);
}

TEST(SearchMaxRate, AFailedOperationIsAMiss) {
  // A probe whose only bad sample is a failed operation: the failure sorts above the
  // limit, so a limit that every completed operation meets is still missed at p99.
  auto met = [](double rate) {
    LatencySet final_view;
    for (int i = 0; i < 99; ++i) {
      final_view.Add(1000);
    }
    if (rate > 500.0) {
      final_view.Miss();
      final_view.Miss();
    }
    return final_view.PercentileMs(99) <= 50.0;
  };
  const RateSearch s = SearchMaxRate(400.0, met);
  EXPECT_LE(s.max_rate, 500.0);
  EXPECT_GT(s.max_rate, 490.0);
}

TEST(Percentile, NearestRankAndBeyondCounts) {
  LatencySet set;
  for (int64_t i = 1; i <= 1000; ++i) {
    set.Add(i * 1000);  // 1..1000 ms
  }
  EXPECT_DOUBLE_EQ(set.PercentileMs(50), 500.0);
  EXPECT_DOUBLE_EQ(set.PercentileMs(99), 990.0);
  EXPECT_EQ(set.BeyondCount(99), 10);
  EXPECT_EQ(set.count(), 1000);
  std::vector<int64_t> empty;
  EXPECT_EQ(Percentile(empty, 99), 0);
  std::vector<int64_t> one = {42};
  EXPECT_EQ(Percentile(one, 1), 42);
  EXPECT_EQ(Percentile(one, 100), 42);
}

TEST(Percentile, MissesReadAsInfinite) {
  LatencySet set;
  set.Add(5000);
  set.Miss();
  EXPECT_DOUBLE_EQ(set.PercentileMs(50), 5.0);
  EXPECT_TRUE(std::isinf(set.PercentileMs(99)));
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(BacklogGrows, FlatQueueVersusClimbingQueue) {
  std::vector<int64_t> flat;
  std::vector<int64_t> climbing;
  for (int i = 0; i < 400; ++i) {
    flat.push_back(20 + (i % 7));
    climbing.push_back(20 + i);
  }
  EXPECT_FALSE(BacklogGrows(flat));
  EXPECT_TRUE(BacklogGrows(climbing));
  EXPECT_FALSE(BacklogGrows({}));
}

TEST(OutputChecker, CleanIcgHistoryPasses) {
  OutputChecker c;
  c.Allow("k", "v0");
  c.Allow("k", "v1");
  c.Expect(0, kWeak, kStrong);
  c.View(0, kWeak, false, "k", true, "v0", true);
  c.View(0, kStrong, true, "k", true, "v1", true);
  c.Expect(1, kStrong, kStrong);
  c.View(1, kStrong, true, "k", true, "", false);  // a write ack
  c.Finish();
  EXPECT_EQ(c.violations().total(), 0);
}

TEST(OutputChecker, FlagsNonMonotoneViews) {
  OutputChecker c;
  c.Allow("k", "v");
  c.Expect(0, kWeak, kStrong);
  c.View(0, kStrong, false, "k", true, "v", true);
  c.View(0, kWeak, true, "k", true, "v", true);  // weaker after stronger
  c.Finish();
  EXPECT_EQ(c.violations().order, 1);
  EXPECT_EQ(c.violations().final_level, 1);  // and the final is not the strongest
}

TEST(OutputChecker, FlagsAViewAtAnUnrequestedLevel) {
  OutputChecker c;
  c.Expect(0, kStrong, kStrong);
  c.View(0, kWeak, false, "k", true, "", false);
  c.View(0, kStrong, true, "k", true, "", false);
  c.Finish();
  EXPECT_EQ(c.violations().order, 1);
}

TEST(OutputChecker, FlagsTwoTerminalsAndAViewAfterTheTerminal) {
  OutputChecker c;
  c.Allow("k", "v");
  c.Expect(0, kWeak, kStrong);
  c.View(0, kStrong, true, "k", true, "v", true);
  c.View(0, kStrong, true, "k", true, "v", true);
  c.Expect(1, kWeak, kStrong);
  c.Error(1);
  c.View(1, kStrong, false, "k", true, "v", true);
  c.Finish();
  EXPECT_EQ(c.violations().terminal, 2);
}

TEST(OutputChecker, FlagsAnUnterminatedInvocation) {
  OutputChecker c;
  c.Allow("k", "v");
  c.Expect(0, kWeak, kStrong);
  c.View(0, kWeak, false, "k", true, "v", true);
  c.Finish();
  EXPECT_EQ(c.violations().unterminated, 1);
}

TEST(OutputChecker, FlagsThinAirValues) {
  OutputChecker c;
  c.Allow("a", "written-to-a");
  c.Expect(0, kWeak, kStrong);
  c.View(0, kWeak, false, "b", true, "written-to-a", true);  // right value, wrong key
  c.View(0, kStrong, true, "a", true, "never-written", true);
  c.Expect(1, kWeak, kStrong);
  c.View(1, kStrong, true, "a", false, "", true);  // a preloaded key read as absent
  c.Finish();
  EXPECT_EQ(c.violations().thin_air, 3);
}

TEST(OutputChecker, FlagsDoubleAndUnknownDequeues) {
  OutputChecker c;
  c.Allow("q", "e1");
  c.Allow("q", "e2");
  c.FinalDequeue("q", "e1");
  c.FinalDequeue("q", "e2");
  EXPECT_EQ(c.violations().total(), 0);
  c.FinalDequeue("q", "e1");
  c.FinalDequeue("q", "ghost");
  c.FinalDequeue("other", "e2");  // enqueued on another queue
  EXPECT_EQ(c.violations().double_dequeue, 1);
  EXPECT_EQ(c.violations().unknown_dequeue, 2);
}

TEST(Fingerprint, OrderAndContentSensitive) {
  Fingerprint a, b, c;
  a.Fold(1, kWeak, 100, ValueDigest(true, "x", -1));
  a.Fold(2, kStrong, 200, ValueDigest(true, "y", -1));
  b.Fold(1, kWeak, 100, ValueDigest(true, "x", -1));
  b.Fold(2, kStrong, 200, ValueDigest(true, "y", -1));
  c.Fold(2, kStrong, 200, ValueDigest(true, "y", -1));
  c.Fold(1, kWeak, 100, ValueDigest(true, "x", -1));
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_NE(ValueDigest(true, "x", 1), ValueDigest(true, "x", 2));
  EXPECT_NE(ValueDigest(true, "", -1), ValueDigest(false, "", -1));
}

}  // namespace
}  // namespace perfbench
