// InvocationPipeline behaviour that is not visible through the plain client surface:
// same-tick read coalescing (batch formation, fan-out, history replay to late joiners),
// plan rejection, and the counted suppression of emissions at unrequested levels and of
// failed preliminaries.
#include "src/correctables/invocation_pipeline.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/correctables/client.h"

namespace icg {
namespace {

OpResult Result(const std::string& value) {
  OpResult r;
  r.found = true;
  r.value = value;
  return r;
}

// Two-level binding over a scriptable asynchronous "store": every fetch is counted and
// answered through the event loop, so reads issued in the same tick are observably
// coalesced (or not) by the fetch count.
class CountingBinding : public Binding {
 public:
  explicit CountingBinding(EventLoop* loop) : loop_(loop) {}

  std::string Name() const override { return "counting"; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }

  InvocationPlan PlanInvocation(const Operation&, const LevelSet& levels) override {
    InvocationPlan plan;
    const bool icg =
        levels.Contains(ConsistencyLevel::kWeak) && levels.Contains(ConsistencyLevel::kStrong);
    plan.AddSpan(levels.levels(), [this, icg, strongest = levels.strongest()](
                                      const Operation& op, LevelEmitter emit) {
      fetches_++;
      if (icg) {
        loop_->Schedule(Millis(1), [emit, key = op.key]() {
          emit(ConsistencyLevel::kWeak, Result("weak:" + key));
        });
      }
      loop_->Schedule(Millis(2), [emit, strongest, key = op.key]() {
        emit(strongest, Result("strong:" + key));
      });
    });
    return plan;
  }

  int fetches_ = 0;

 private:
  EventLoop* loop_;
};

class CoalescingTest : public ::testing::Test {
 protected:
  CoalescingTest()
      : binding_(std::make_shared<CountingBinding>(&loop_)), client_(binding_, &loop_) {}

  EventLoop loop_;
  std::shared_ptr<CountingBinding> binding_;
  CorrectableClient client_;
};

TEST_F(CoalescingTest, SameTickSameKeyReadsShareOneRoundTrip) {
  auto a = client_.Invoke(Operation::Get("k"));
  auto b = client_.Invoke(Operation::Get("k"));
  loop_.Run();

  EXPECT_EQ(binding_->fetches_, 1);  // one store round-trip served both
  EXPECT_EQ(a.Final().value().value, "strong:k");
  EXPECT_EQ(b.Final().value().value, "strong:k");
  EXPECT_EQ(a.views_delivered(), 2);  // weak + strong each
  EXPECT_EQ(b.views_delivered(), 2);
  EXPECT_EQ(client_.stats().coalesced_reads, 1);
  EXPECT_EQ(client_.stats().batched_invocations, 1);
  EXPECT_EQ(client_.stats().views_delivered, 4);
}

TEST_F(CoalescingTest, ThreeWayBatchCountsOneBatchTwoCoalesced) {
  client_.Invoke(Operation::Get("k"));
  client_.Invoke(Operation::Get("k"));
  client_.Invoke(Operation::Get("k"));
  loop_.Run();
  EXPECT_EQ(binding_->fetches_, 1);
  EXPECT_EQ(client_.stats().batched_invocations, 1);
  EXPECT_EQ(client_.stats().coalesced_reads, 2);
}

TEST_F(CoalescingTest, DifferentKeysDoNotCoalesce) {
  client_.Invoke(Operation::Get("k1"));
  client_.Invoke(Operation::Get("k2"));
  loop_.Run();
  EXPECT_EQ(binding_->fetches_, 2);
  EXPECT_EQ(client_.stats().coalesced_reads, 0);
}

TEST_F(CoalescingTest, DifferentLevelSetsDoNotCoalesce) {
  // An ICG read and a strong-only read need different view sequences.
  auto icg = client_.Invoke(Operation::Get("k"));
  auto strong = client_.InvokeStrong(Operation::Get("k"));
  loop_.Run();
  EXPECT_EQ(binding_->fetches_, 2);
  EXPECT_EQ(client_.stats().coalesced_reads, 0);
  EXPECT_EQ(icg.views_delivered(), 2);
  EXPECT_EQ(strong.views_delivered(), 1);
}

TEST_F(CoalescingTest, LaterTickDoesNotCoalesce) {
  client_.Invoke(Operation::Get("k"));
  loop_.RunFor(Micros(1));  // advance virtual time past the submission tick
  client_.Invoke(Operation::Get("k"));
  loop_.Run();
  EXPECT_EQ(binding_->fetches_, 2);
  EXPECT_EQ(client_.stats().coalesced_reads, 0);
}

TEST_F(CoalescingTest, WritesDoNotCoalesce) {
  client_.InvokeStrong(Operation::Put("k", "v"));
  client_.InvokeStrong(Operation::Put("k", "v"));
  loop_.Run();
  EXPECT_EQ(binding_->fetches_, 2);
  EXPECT_EQ(client_.stats().coalesced_reads, 0);
}

TEST(CoalescingNoLoop, SynchronousClientsNeverCoalesce) {
  // Without an event loop there is no tick to coalesce within.
  EventLoop loop;  // only drives the binding; the client runs loop-less
  auto binding = std::make_shared<CountingBinding>(&loop);
  CorrectableClient client(binding);
  client.Invoke(Operation::Get("k"));
  client.Invoke(Operation::Get("k"));
  loop.Run();
  EXPECT_EQ(binding->fetches_, 2);
  EXPECT_EQ(client.stats().coalesced_reads, 0);
}

// A cache-over-store binding: the CACHE level resolves synchronously during submission,
// the STRONG level via the loop. A same-tick joiner must still observe the cache view —
// the pipeline replays the batch history to late joiners.
class SyncCacheBinding : public Binding {
 public:
  explicit SyncCacheBinding(EventLoop* loop) : loop_(loop) {}

  std::string Name() const override { return "sync-cache"; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kCache, ConsistencyLevel::kStrong};
  }

  InvocationPlan PlanInvocation(const Operation&, const LevelSet& levels) override {
    InvocationPlan plan;
    if (levels.Contains(ConsistencyLevel::kCache)) {
      plan.AddStep(ConsistencyLevel::kCache, [this](const Operation&, LevelEmitter emit) {
        cache_fetches_++;
        emit(ConsistencyLevel::kCache, Result("cached"));
      });
    }
    if (levels.Contains(ConsistencyLevel::kStrong)) {
      plan.AddStep(ConsistencyLevel::kStrong, [this](const Operation&, LevelEmitter emit) {
        store_fetches_++;
        loop_->Schedule(Millis(1),
                        [emit]() { emit(ConsistencyLevel::kStrong, Result("fresh")); });
      });
    }
    return plan;
  }

  int cache_fetches_ = 0;
  int store_fetches_ = 0;

 private:
  EventLoop* loop_;
};

TEST(CoalescingReplay, SynchronousViewsReplayedToLateJoiners) {
  EventLoop loop;
  auto binding = std::make_shared<SyncCacheBinding>(&loop);
  CorrectableClient client(binding, &loop);

  auto leader = client.Invoke(Operation::Get("k"));
  ASSERT_TRUE(leader.HasView());  // cache view surfaced synchronously
  auto joiner = client.Invoke(Operation::Get("k"));
  // The joiner missed the live cache emission but must receive it from history.
  ASSERT_TRUE(joiner.HasView());
  EXPECT_EQ(joiner.LatestView().level, ConsistencyLevel::kCache);
  EXPECT_EQ(joiner.LatestView().value.value, "cached");

  loop.Run();
  EXPECT_EQ(binding->cache_fetches_, 1);
  EXPECT_EQ(binding->store_fetches_, 1);
  EXPECT_EQ(leader.views_delivered(), 2);
  EXPECT_EQ(joiner.views_delivered(), 2);
  EXPECT_EQ(leader.Final().value().value, "fresh");
  EXPECT_EQ(joiner.Final().value().value, "fresh");
}

// A scriptable binding in the style of the client tests, for pathological emissions.
// Its one step declares the requested levels, or every supported level when
// `declare_all_levels` is set.
class ScriptedBinding : public Binding {
 public:
  std::string Name() const override { return "scripted"; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }
  InvocationPlan PlanInvocation(const Operation&, const LevelSet& levels) override {
    InvocationPlan plan;
    plan.AddSpan(declare_all_levels ? LevelVec{ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}
                                    : levels.levels(),
                 [this](const Operation&, LevelEmitter emit) {
                   emitters_.push_back(std::move(emit));
                 });
    return plan;
  }
  bool declare_all_levels = false;
  std::vector<LevelEmitter> emitters_;
};

TEST(PipelineValidation, EmissionAtUnrequestedLevelIsDropped) {
  auto binding = std::make_shared<ScriptedBinding>();
  CorrectableClient client(binding);
  auto c = client.InvokeStrong(Operation::Get("k"));  // only STRONG requested
  auto& emit = binding->emitters_.back();
  emit(ConsistencyLevel::kWeak, Result("never-asked-for"));
  EXPECT_FALSE(c.HasView());  // dropped before reaching the Correctable
  emit(ConsistencyLevel::kStrong, Result("s"));
  EXPECT_EQ(c.Final().value().value, "s");
  EXPECT_EQ(client.stats().views_delivered, 1);
  EXPECT_EQ(client.stats().dropped_emissions, 1);
}

TEST(PipelineValidation, DeclaredButUnrequestedEmissionIsDropped) {
  // The step declares WEAK, so the emission passes the step's check; the invocation
  // asked only for STRONG, so the pipeline drops it.
  auto binding = std::make_shared<ScriptedBinding>();
  binding->declare_all_levels = true;
  CorrectableClient client(binding);
  auto c = client.InvokeStrong(Operation::Get("k"));
  auto& emit = binding->emitters_.back();
  emit(ConsistencyLevel::kWeak, Result("never-asked-for"));
  EXPECT_FALSE(c.HasView());
  emit(ConsistencyLevel::kStrong, Result("s"));
  EXPECT_EQ(c.Final().value().value, "s");
  EXPECT_EQ(client.stats().dropped_emissions, 1);
}

TEST(PipelineValidation, FailedPreliminaryIsCountedAndTheFinalStillCloses) {
  auto binding = std::make_shared<ScriptedBinding>();
  CorrectableClient client(binding);
  auto c = client.Invoke(Operation::Get("k"));  // WEAK then STRONG
  auto& emit = binding->emitters_.back();
  emit(ConsistencyLevel::kWeak, Status::Unavailable("weak replica down"));
  EXPECT_EQ(c.state(), CorrectableState::kUpdating);  // tolerated: a stronger view may come
  EXPECT_FALSE(c.HasView());
  emit(ConsistencyLevel::kStrong, Result("s"));
  EXPECT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.Final().value().value, "s");
  EXPECT_EQ(client.stats().preliminary_errors, 1);
  EXPECT_EQ(client.stats().errors, 0);
  EXPECT_EQ(client.stats().dropped_emissions, 0);
}

class RejectingBinding : public Binding {
 public:
  std::string Name() const override { return "rejecting"; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }
  InvocationPlan PlanInvocation(const Operation&, const LevelSet&) override {
    return InvocationPlan::Rejected(Status::InvalidArgument("unsupported operation"));
  }
};

TEST(PipelineValidation, RejectedPlanFailsWithoutFetching) {
  auto binding = std::make_shared<RejectingBinding>();
  CorrectableClient client(binding);
  auto c = client.Invoke(Operation::Get("k"));
  EXPECT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.Final().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.stats().errors, 1);
}

// A buggy binding whose plan never covers the strongest requested level (here: no steps
// at all, or only a WEAK step for an ICG request). Without the coverage check the
// Correctable would hang in kUpdating forever — with no loop there is not even a
// timeout to save it.
class UnderCoveringBinding : public Binding {
 public:
  std::string Name() const override { return "under-covering"; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }
  InvocationPlan PlanInvocation(const Operation&, const LevelSet& levels) override {
    InvocationPlan plan;
    if (levels.Contains(ConsistencyLevel::kWeak)) {
      plan.AddStep(ConsistencyLevel::kWeak, [](const Operation&, LevelEmitter emit) {
        emit(ConsistencyLevel::kWeak, Result("w"));
      });
    }
    return plan;  // never declares the strongest level
  }
};

TEST(PipelineValidation, PlanMissingFinalLevelFailsFastInsteadOfHanging) {
  auto binding = std::make_shared<UnderCoveringBinding>();
  CorrectableClient client(binding);

  auto icg = client.Invoke(Operation::Get("k"));  // WEAK step only, STRONG uncovered
  EXPECT_EQ(icg.state(), CorrectableState::kError);
  EXPECT_EQ(icg.Final().status().code(), StatusCode::kInternal);

  auto strong = client.InvokeStrong(Operation::Get("k"));  // empty plan
  EXPECT_EQ(strong.state(), CorrectableState::kError);
  EXPECT_EQ(strong.Final().status().code(), StatusCode::kInternal);
  EXPECT_EQ(client.stats().errors, 2);

  // The raw binding-level path reports the same protocol error.
  Status raw;
  binding->SubmitOperation(Operation::Get("k"),
                           {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong},
                           [&](StatusOr<OpResult> r, ConsistencyLevel level, ResponseKind) {
                             raw = r.status();
                             EXPECT_EQ(level, ConsistencyLevel::kStrong);
                           });
  EXPECT_EQ(raw.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace icg
