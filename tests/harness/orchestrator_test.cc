#include "src/harness/orchestrator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

namespace icg {
namespace {

// One control interval's sample. `shards` rows are (outstanding, primary_share); the
// defaults describe a healthy 4-rung deployment sitting on rung 1 with spares on hand.
ControlSample Sample(std::vector<std::pair<size_t, double>> shards, int64_t shed_delta,
                     size_t spares = 2, size_t window_index = 1, size_t ladder = 4) {
  ControlSample sample;
  for (size_t i = 0; i < shards.size(); ++i) {
    sample.shards.push_back(ShardSignal{i, shards[i].first, shards[i].second});
  }
  sample.shed_delta = shed_delta;
  sample.spare_replicas = spares;
  sample.window_index = window_index;
  sample.window_ladder_size = ladder;
  return sample;
}

// A policy whose ring may shrink to a single coordinator.
OrchestratorPolicy Policy() { return OrchestratorPolicy(/*min_coordinators=*/1); }

// Feeds `sample` for one interval short of the scale-in streak; every interval must hold.
void DecideUntilScaleInIsDue(OrchestratorPolicy& policy, const ControlSample& sample) {
  for (int i = 1; i < kCoolIntervalsToScaleIn; ++i) {
    EXPECT_EQ(policy.Decide(sample).kind, std::nullopt) << "cool interval " << i;
  }
}

TEST(OrchestratorPolicy, EmptySampleIsANoOpAndResetsTheEpisode) {
  OrchestratorPolicy policy = Policy();
  // Cool samples at rung 0 (so the shrink leg cannot fire first).
  const ControlSample cool = Sample({{0, 0.5}, {0, 0.5}}, 0, 2, /*window_index=*/0);
  // Cool intervals toward the scale-in streak, one short of it...
  DecideUntilScaleInIsDue(policy, cool);
  // ...interrupted by a degenerate (empty) window, which must both no-op and reset.
  EXPECT_EQ(policy.Decide(Sample({}, 1000)).kind, std::nullopt);
  // The streak restarted: a whole streak of cool intervals is needed, not one.
  DecideUntilScaleInIsDue(policy, cool);
  EXPECT_EQ(policy.Decide(cool).kind, EventKind::kScaleIn);
}

TEST(OrchestratorPolicy, SustainedShedsScaleOutOneIntervalDoesNot) {
  OrchestratorPolicy policy = Policy();
  // One shedding interval is a burst, not a trend — widen fires instead (shedding is
  // itself a saturation signal), and scale-out waits for the streak.
  const ControlAction first = policy.Decide(Sample({{20, 0.5}, {20, 0.5}}, 50));
  EXPECT_EQ(first.kind, EventKind::kWiden);

  OrchestratorPolicy fresh = Policy();
  ControlSample shedding = Sample({{20, 0.5}, {20, 0.5}}, 50, /*spares=*/2,
                                  /*window_index=*/3);  // ladder topped out: no widen
  EXPECT_EQ(fresh.Decide(shedding).kind, std::nullopt);
  EXPECT_EQ(fresh.Decide(shedding).kind, EventKind::kScaleOut);
}

TEST(OrchestratorPolicy, ShedsWithoutSparesWidenTheWindowInstead) {
  OrchestratorPolicy policy = Policy();
  const ControlSample starved = Sample({{20, 0.5}, {20, 0.5}}, 50, /*spares=*/0);
  EXPECT_EQ(policy.Decide(starved).kind, EventKind::kWiden);
  // The emitted detail is the next rung up.
  OrchestratorPolicy again = Policy();
  EXPECT_EQ(again.Decide(starved).detail, 2u);
}

TEST(OrchestratorPolicy, WidenFiresExactlyAtTheBoundary) {
  // Mean outstanding per shard == the widen band must widen; one below must not.
  OrchestratorPolicy at = Policy();
  EXPECT_EQ(at.Decide(Sample({{16, 0.5}, {16, 0.5}}, 0)).kind,
            EventKind::kWiden);
  OrchestratorPolicy below = Policy();
  EXPECT_EQ(below.Decide(Sample({{15, 0.5}, {15, 0.5}}, 0)).kind,
            std::nullopt);
}

TEST(OrchestratorPolicy, ShrinkFiresExactlyAtTheBoundaryAndNeverBelowRungZero) {
  OrchestratorPolicy at = Policy();
  const ControlAction shrink = at.Decide(Sample({{2, 0.5}, {2, 0.5}}, 0));
  EXPECT_EQ(shrink.kind, EventKind::kShrink);
  EXPECT_EQ(shrink.detail, 0u);

  OrchestratorPolicy above = Policy();
  EXPECT_EQ(above.Decide(Sample({{3, 0.5}, {3, 0.5}}, 0)).kind, std::nullopt);

  // Already at the bottom rung: idle queues cannot shrink further.
  OrchestratorPolicy bottom = Policy();
  EXPECT_EQ(bottom.Decide(Sample({{2, 0.5}, {2, 0.5}}, 0, 2, /*window_index=*/0)).kind,
            std::nullopt);
}

TEST(OrchestratorPolicy, HysteresisGapHoldsTheWindowSteady) {
  // Load between the bands (shrink < per-shard < widen) must never move the window in
  // either direction, no matter how long it persists.
  OrchestratorPolicy policy = Policy();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(policy.Decide(Sample({{8, 0.5}, {8, 0.5}}, 0)).kind,
              std::nullopt)
        << "interval " << i;
  }
}

TEST(OrchestratorPolicy, StrictlyHigherShedDeltasNeverScaleIn) {
  // Metamorphic monotonicity: take a history whose final interval scales in, then
  // replay it with the final shed_delta raised to increasingly extreme values — the
  // mutated runs must never emit scale-in (sheds mean load, and scaling in under load
  // is the one catastrophic direction).
  const auto cool = Sample({{0, 0.7}, {0, 0.3}}, 0, 2, /*window_index=*/0);
  OrchestratorPolicy baseline = Policy();
  DecideUntilScaleInIsDue(baseline, cool);
  EXPECT_EQ(baseline.Decide(cool).kind, EventKind::kScaleIn);

  for (const int64_t delta : {int64_t{1}, int64_t{100}, int64_t{1000000}}) {
    OrchestratorPolicy mutated = Policy();
    DecideUntilScaleInIsDue(mutated, cool);
    const ControlAction action =
        mutated.Decide(Sample({{0, 0.7}, {0, 0.3}}, delta, 2, /*window_index=*/0));
    EXPECT_NE(action.kind, EventKind::kScaleIn) << "shed_delta=" << delta;
  }
}

TEST(OrchestratorPolicy, CooldownSuppressesBackToBackActionsButStreaksAccumulate) {
  OrchestratorPolicy policy = Policy();
  const ControlSample shedding = Sample({{20, 0.5}, {20, 0.5}}, 50);
  // t1: widen (first shedding interval) and enter cooldown.
  EXPECT_EQ(policy.Decide(shedding).kind, EventKind::kWiden);
  // t2, t3: cooldown eats the intervals — but the shed streak keeps counting.
  EXPECT_EQ(policy.Decide(shedding).kind, std::nullopt);
  EXPECT_EQ(policy.Decide(shedding).kind, std::nullopt);
  // t4: cooldown expired; the accumulated streak (4 >= 2) scales out immediately.
  EXPECT_EQ(policy.Decide(shedding).kind, EventKind::kScaleOut);
}

TEST(OrchestratorPolicy, DecisionsAreInputOrderInvariant) {
  // Same shard multiset, forward and reversed: identical action AND identical victim.
  for (const bool reversed : {false, true}) {
    OrchestratorPolicy policy = Policy();
    auto rows = std::vector<std::pair<size_t, double>>{{0, 0.5}, {1, 0.2}, {0, 0.3}};
    ControlSample cool;
    cool.spare_replicas = 2;
    cool.window_index = 0;  // rung 0: the shrink leg cannot preempt scale-in
    cool.window_ladder_size = 4;
    for (size_t i = 0; i < rows.size(); ++i) {
      cool.shards.push_back(ShardSignal{i, rows[i].first, rows[i].second});
    }
    if (reversed) {
      std::reverse(cool.shards.begin(), cool.shards.end());
    }
    DecideUntilScaleInIsDue(policy, cool);
    const ControlAction action = policy.Decide(cool);
    ASSERT_EQ(action.kind, EventKind::kScaleIn) << "reversed=" << reversed;
    EXPECT_EQ(action.detail, 1u) << "reversed=" << reversed;  // smallest primary share
  }
}

TEST(OrchestratorPolicy, ScaleInTiesBreakTowardTheLowestShard) {
  OrchestratorPolicy policy = Policy();
  const auto tied = Sample({{0, 0.25}, {0, 0.5}, {0, 0.25}}, 0, 2, /*window_index=*/0);
  DecideUntilScaleInIsDue(policy, tied);
  const ControlAction action = policy.Decide(tied);
  ASSERT_EQ(action.kind, EventKind::kScaleIn);
  EXPECT_EQ(action.detail, 0u);  // shards 0 and 2 tie at 0.25; lowest index wins
}

TEST(OrchestratorPolicy, ScaleInRespectsMinCoordinators) {
  OrchestratorPolicy policy(/*min_coordinators=*/2);
  const auto cool = Sample({{0, 0.5}, {0, 0.5}}, 0, 2, /*window_index=*/0);
  for (int i = 0; i < 2 * kCoolIntervalsToScaleIn; ++i) {
    EXPECT_EQ(policy.Decide(cool).kind, std::nullopt) << "interval " << i;
  }
}

TEST(OrchestratorPolicy, LadderTopLeavesSaturationWithNothingToDo) {
  OrchestratorPolicy policy = Policy();
  // Topped-out ladder: saturation without sheds has no action left to take, interval
  // after interval.
  const auto saturated = Sample({{100, 0.5}, {100, 0.5}}, 0, 2, /*window_index=*/3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(policy.Decide(saturated).kind, std::nullopt) << "interval " << i;
  }
  // One rung lower the same load widens.
  EXPECT_EQ(policy.Decide(Sample({{100, 0.5}, {100, 0.5}}, 0, 2, /*window_index=*/2)).kind,
            EventKind::kWiden);
}

}  // namespace
}  // namespace icg
