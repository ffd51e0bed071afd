// Unit tests for the Correctable<T> abstraction: state machine, callbacks, monotonicity,
// and the Map/Speculate/WhenAll combinators.
#include "src/correctables/correctable.h"
#include "src/correctables/operation.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace icg {
namespace {

TEST(CorrectableStates, StartsUpdatingAndClosesFinal) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  EXPECT_EQ(c.state(), CorrectableState::kUpdating);
  EXPECT_FALSE(c.HasView());
  EXPECT_FALSE(c.Final().ok());
  EXPECT_EQ(c.Final().status().code(), StatusCode::kUnavailable);

  EXPECT_TRUE(src.Update(1, ConsistencyLevel::kWeak));
  EXPECT_EQ(c.state(), CorrectableState::kUpdating);
  EXPECT_TRUE(c.HasView());
  EXPECT_EQ(c.LatestView().value, 1);
  EXPECT_FALSE(c.LatestView().is_final);

  EXPECT_TRUE(src.Close(2, ConsistencyLevel::kStrong));
  EXPECT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_TRUE(c.LatestView().is_final);
  ASSERT_TRUE(c.Final().ok());
  EXPECT_EQ(c.Final().value(), 2);
}

// Final() returns a temporary StatusOr; binding a reference to its value() must extend
// the value's lifetime. The value outgrows the small-string buffer, so a dangling
// reference would read freed heap memory (which AddressSanitizer reports).
TEST(CorrectableStates, FinalValueBoundByConstReferenceOutlivesTheStatement) {
  const std::string payload(64, 'v');
  CorrectableSource<OpResult> src;
  OpResult result;
  result.found = true;
  result.value = payload;
  ASSERT_TRUE(src.Close(std::move(result), ConsistencyLevel::kStrong));
  auto c = src.GetCorrectable();

  const OpResult& r = c.Final().value();
  std::string churn(256, 'x');  // reuse the heap a dangling reference would point into
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.value, payload);
  EXPECT_EQ(churn.size(), 256u);
}

TEST(CorrectableStates, ErrorState) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  EXPECT_TRUE(src.Fail(Status::Timeout()));
  EXPECT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.Final().status().code(), StatusCode::kTimeout);
}

TEST(CorrectableStates, NoTransitionsAfterClose) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  ASSERT_TRUE(src.Close(7, ConsistencyLevel::kStrong));
  EXPECT_FALSE(src.Update(8, ConsistencyLevel::kWeak));
  EXPECT_FALSE(src.Close(9, ConsistencyLevel::kStrong));
  EXPECT_FALSE(src.Fail(Status::Internal("late")));
  EXPECT_EQ(c.Final().value(), 7);
}

TEST(CorrectableStates, NoTransitionsAfterError) {
  CorrectableSource<int> src;
  ASSERT_TRUE(src.Fail(Status::Timeout()));
  EXPECT_FALSE(src.Update(1, ConsistencyLevel::kWeak));
  EXPECT_FALSE(src.Close(1, ConsistencyLevel::kStrong));
}

TEST(CorrectableMonotonicity, DropsRegressingLevels) {
  CorrectableSource<int> src;
  ASSERT_TRUE(src.Update(1, ConsistencyLevel::kCausal));
  // A weaker view arriving later (network reordering) must be suppressed.
  EXPECT_FALSE(src.Update(0, ConsistencyLevel::kWeak));
  // Equal level is allowed (multi-view streams, e.g. blockchain confirmations).
  EXPECT_TRUE(src.Update(2, ConsistencyLevel::kCausal));
  // Stronger is allowed.
  EXPECT_TRUE(src.Update(3, ConsistencyLevel::kStrong));
}

TEST(CorrectableCallbacks, UpdateFinalErrorFire) {
  CorrectableSource<std::string> src;
  auto c = src.GetCorrectable();
  std::vector<std::string> updates;
  std::string final_value;
  int finals = 0;
  c.SetCallbacks([&](const View<std::string>& v) { updates.push_back(v.value); },
                 [&](const View<std::string>& v) {
                   final_value = v.value;
                   finals++;
                 });
  src.Update("a", ConsistencyLevel::kWeak);
  src.Update("b", ConsistencyLevel::kCausal);
  src.Close("c", ConsistencyLevel::kStrong);
  EXPECT_EQ(updates, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(final_value, "c");
  EXPECT_EQ(finals, 1);
}

TEST(CorrectableCallbacks, LateSubscribersReplayState) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  src.Update(5, ConsistencyLevel::kWeak);

  int update_seen = -1;
  c.OnUpdate([&](const View<int>& v) { update_seen = v.value; });
  EXPECT_EQ(update_seen, 5);  // replayed immediately

  src.Close(6, ConsistencyLevel::kStrong);
  int final_seen = -1;
  c.OnFinal([&](const View<int>& v) { final_seen = v.value; });
  EXPECT_EQ(final_seen, 6);  // fired immediately on attach

  CorrectableSource<int> err_src;
  auto e = err_src.GetCorrectable();
  err_src.Fail(Status::Unavailable("down"));
  Status seen;
  e.OnError([&](const Status& s) { seen = s; });
  EXPECT_EQ(seen.code(), StatusCode::kUnavailable);
}

TEST(CorrectableCallbacks, MultipleCallbacksAllFire) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  int count = 0;
  c.OnFinal([&](const View<int>&) { count++; });
  c.OnFinal([&](const View<int>&) { count++; });
  src.Close(1, ConsistencyLevel::kStrong);
  EXPECT_EQ(count, 2);
}

TEST(CorrectableCallbacks, CallbackAttachingCallbackIsSafe) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  int inner_fired = 0;
  c.OnUpdate([&](const View<int>&) {
    c.OnFinal([&](const View<int>&) { inner_fired++; });
  });
  src.Update(1, ConsistencyLevel::kWeak);
  src.Close(2, ConsistencyLevel::kStrong);
  EXPECT_EQ(inner_fired, 1);
}

TEST(CorrectableConfirmation, CloseConfirmedUsesPreliminaryValue) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  src.Update(42, ConsistencyLevel::kWeak);
  EXPECT_TRUE(src.CloseConfirmed(ConsistencyLevel::kStrong));
  ASSERT_TRUE(c.Final().ok());
  EXPECT_EQ(c.Final().value(), 42);
  EXPECT_TRUE(c.LatestView().confirmed_preliminary);
  EXPECT_EQ(c.LatestView().level, ConsistencyLevel::kStrong);
}

TEST(CorrectableConfirmation, ConfirmationWithoutPreliminaryIsError) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  EXPECT_FALSE(src.CloseConfirmed(ConsistencyLevel::kStrong));
  EXPECT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.Final().status().code(), StatusCode::kInternal);
}

TEST(CorrectableFactories, FromValueAndFailed) {
  auto v = Correctable<int>::FromValue(3);
  EXPECT_EQ(v.state(), CorrectableState::kFinal);
  EXPECT_EQ(v.Final().value(), 3);

  auto f = Correctable<int>::Failed(Status::NotFound("x"));
  EXPECT_EQ(f.state(), CorrectableState::kError);
  EXPECT_EQ(f.Final().status().code(), StatusCode::kNotFound);
}

TEST(CorrectableMap, TransformsAllViews) {
  CorrectableSource<int> src;
  auto doubled = src.GetCorrectable().Map([](const int& x) { return x * 2; });
  std::vector<int> seen;
  doubled.OnUpdate([&](const View<int>& v) { seen.push_back(v.value); });
  src.Update(1, ConsistencyLevel::kWeak);
  src.Update(2, ConsistencyLevel::kCausal);
  src.Close(3, ConsistencyLevel::kStrong);
  EXPECT_EQ(seen, (std::vector<int>{2, 4}));
  EXPECT_EQ(doubled.Final().value(), 6);
  EXPECT_EQ(doubled.LatestView().level, ConsistencyLevel::kStrong);
}

TEST(CorrectableMap, PropagatesErrors) {
  CorrectableSource<int> src;
  auto mapped = src.GetCorrectable().Map([](const int& x) { return x + 1; });
  src.Fail(Status::Timeout());
  EXPECT_EQ(mapped.state(), CorrectableState::kError);
}

TEST(CorrectableMap, TypeChangingMap) {
  CorrectableSource<int> src;
  auto str = src.GetCorrectable().Map([](const int& x) { return std::to_string(x); });
  src.Close(12, ConsistencyLevel::kStrong);
  EXPECT_EQ(str.Final().value(), "12");
}

// --- Speculate ---------------------------------------------------------------------

TEST(Speculate, HitClosesWithSpeculationResult) {
  CorrectableSource<int> src;
  int spec_runs = 0;
  auto result = src.GetCorrectable().Speculate([&](const int& x) {
    spec_runs++;
    return x * 10;
  });
  src.Update(4, ConsistencyLevel::kWeak);
  EXPECT_EQ(spec_runs, 1);
  // Preliminary speculation result is exposed as an update.
  ASSERT_TRUE(result.HasView());
  EXPECT_EQ(result.LatestView().value, 40);
  EXPECT_FALSE(result.is_final());

  src.Close(4, ConsistencyLevel::kStrong);  // same value: hit
  EXPECT_EQ(spec_runs, 1);                  // not re-executed
  EXPECT_EQ(result.Final().value(), 40);
}

TEST(Speculate, MissAbortsAndReexecutes) {
  CorrectableSource<int> src;
  int spec_runs = 0;
  std::vector<int> aborted_inputs;
  auto result = src.GetCorrectable().Speculate(
      [&](const int& x) {
        spec_runs++;
        return x * 10;
      },
      [&](const int& bad) { aborted_inputs.push_back(bad); });
  src.Update(4, ConsistencyLevel::kWeak);
  src.Close(5, ConsistencyLevel::kStrong);  // diverged
  EXPECT_EQ(spec_runs, 2);
  EXPECT_EQ(aborted_inputs, (std::vector<int>{4}));
  EXPECT_EQ(result.Final().value(), 50);
}

TEST(Speculate, NoPreliminaryStillProducesResult) {
  CorrectableSource<int> src;
  auto result = src.GetCorrectable().Speculate([](const int& x) { return x + 1; });
  src.Close(9, ConsistencyLevel::kStrong);
  EXPECT_EQ(result.Final().value(), 10);
}

TEST(Speculate, IdenticalConsecutiveViewsSpeculateOnce) {
  CorrectableSource<int> src;
  int spec_runs = 0;
  auto result = src.GetCorrectable().Speculate([&](const int& x) {
    spec_runs++;
    return x;
  });
  src.Update(1, ConsistencyLevel::kWeak);
  src.Update(1, ConsistencyLevel::kWeak);    // same value, same level
  src.Update(1, ConsistencyLevel::kCausal);  // same value, stronger level
  EXPECT_EQ(spec_runs, 1);
  src.Close(1, ConsistencyLevel::kStrong);
  EXPECT_EQ(result.Final().value(), 1);
}

TEST(Speculate, SupersededSpeculationAborts) {
  CorrectableSource<int> src;
  std::vector<int> aborted;
  auto result = src.GetCorrectable().Speculate([](const int& x) { return x; },
                                               [&](const int& bad) { aborted.push_back(bad); });
  src.Update(1, ConsistencyLevel::kWeak);
  src.Update(2, ConsistencyLevel::kCausal);  // supersedes input 1
  src.Close(2, ConsistencyLevel::kStrong);
  EXPECT_EQ(aborted, (std::vector<int>{1}));
  EXPECT_EQ(result.Final().value(), 2);
}

TEST(Speculate, AsyncSpeculationHit) {
  CorrectableSource<int> src;
  CorrectableSource<std::string> inner;
  int spec_runs = 0;
  auto result = src.GetCorrectable().Speculate([&](const int&) {
    spec_runs++;
    return inner.GetCorrectable();
  });
  src.Update(1, ConsistencyLevel::kWeak);
  src.Close(1, ConsistencyLevel::kStrong);  // final confirms before inner resolves
  EXPECT_EQ(result.state(), CorrectableState::kUpdating);
  inner.Close("done", ConsistencyLevel::kStrong);
  EXPECT_EQ(result.Final().value(), "done");
  EXPECT_EQ(spec_runs, 1);
}

TEST(Speculate, AsyncSpeculationResolvesBeforeFinal) {
  CorrectableSource<int> src;
  auto result = src.GetCorrectable().Speculate([](const int& x) {
    return Correctable<int>::FromValue(x * 2);
  });
  src.Update(3, ConsistencyLevel::kWeak);
  ASSERT_TRUE(result.HasView());
  EXPECT_EQ(result.LatestView().value, 6);
  src.Close(3, ConsistencyLevel::kStrong);
  EXPECT_EQ(result.Final().value(), 6);
}

TEST(Speculate, UpstreamErrorFailsResult) {
  CorrectableSource<int> src;
  auto result = src.GetCorrectable().Speculate([](const int& x) { return x; });
  src.Update(1, ConsistencyLevel::kWeak);
  src.Fail(Status::Unavailable("gone"));
  EXPECT_EQ(result.state(), CorrectableState::kError);
}

// --- WhenAll -------------------------------------------------------------------------

TEST(WhenAll, EmptyClosesImmediately) {
  auto all = WhenAll<int>({});
  EXPECT_EQ(all.state(), CorrectableState::kFinal);
  EXPECT_TRUE(all.Final().value().empty());
}

TEST(WhenAll, ClosesWhenAllFinal) {
  CorrectableSource<int> a;
  CorrectableSource<int> b;
  auto all = WhenAll<int>({a.GetCorrectable(), b.GetCorrectable()});
  a.Close(1, ConsistencyLevel::kStrong);
  EXPECT_EQ(all.state(), CorrectableState::kUpdating);
  b.Close(2, ConsistencyLevel::kStrong);
  ASSERT_EQ(all.state(), CorrectableState::kFinal);
  EXPECT_EQ(all.Final().value(), (std::vector<int>{1, 2}));
}

TEST(WhenAll, UpdatesCarryWeakestLevel) {
  CorrectableSource<int> a;
  CorrectableSource<int> b;
  auto all = WhenAll<int>({a.GetCorrectable(), b.GetCorrectable()});
  std::vector<ConsistencyLevel> levels;
  all.OnUpdate([&](const View<std::vector<int>>& v) { levels.push_back(v.level); });
  a.Update(1, ConsistencyLevel::kStrong);
  EXPECT_TRUE(levels.empty());  // b has no view yet
  b.Update(2, ConsistencyLevel::kWeak);
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], ConsistencyLevel::kWeak);
}

TEST(WhenAll, ErrorFailsAggregate) {
  CorrectableSource<int> a;
  CorrectableSource<int> b;
  auto all = WhenAll<int>({a.GetCorrectable(), b.GetCorrectable()});
  a.Fail(Status::Timeout());
  EXPECT_EQ(all.state(), CorrectableState::kError);
}

// --- Terminal-state callback hardening ------------------------------------------------
// Callbacks attached after a final/error must fire immediately with the terminal view
// (promise semantics), and the terminal transition must release every stored callback so
// captured resources do not outlive the invocation.

TEST(CorrectableTerminal, AttachAfterFinalFiresImmediatelyWithTerminalView) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  src.Update(1, ConsistencyLevel::kWeak);
  src.Close(2, ConsistencyLevel::kStrong);

  int final_value = -1;
  ConsistencyLevel final_level = ConsistencyLevel::kCache;
  bool was_final = false;
  c.OnFinal([&](const View<int>& v) {
    final_value = v.value;
    final_level = v.level;
    was_final = v.is_final;
  });
  EXPECT_EQ(final_value, 2);
  EXPECT_EQ(final_level, ConsistencyLevel::kStrong);
  EXPECT_TRUE(was_final);

  // OnUpdate after close must NOT fire: there will never be another preliminary.
  int updates = 0;
  c.OnUpdate([&](const View<int>&) { updates++; });
  EXPECT_EQ(updates, 0);
}

TEST(CorrectableTerminal, SetCallbacksAfterErrorFiresOnlyErrorCallback) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  src.Update(1, ConsistencyLevel::kWeak);
  src.Fail(Status::Unavailable("down"));

  int updates = 0;
  int finals = 0;
  Status seen;
  c.SetCallbacks([&](const View<int>&) { updates++; }, [&](const View<int>&) { finals++; },
                 [&](const Status& s) { seen = s; });
  EXPECT_EQ(updates, 0);
  EXPECT_EQ(finals, 0);
  EXPECT_EQ(seen.code(), StatusCode::kUnavailable);
}

TEST(CorrectableTerminal, CloseReleasesStoredCallbacks) {
  auto resource = std::make_shared<int>(7);
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  c.OnUpdate([resource](const View<int>&) {});
  c.OnFinal([resource](const View<int>&) {});
  c.OnError([resource](const Status&) {});
  EXPECT_EQ(resource.use_count(), 4);

  src.Close(1, ConsistencyLevel::kStrong);
  // All three lists were consumed; only the local handle keeps the resource alive.
  EXPECT_EQ(resource.use_count(), 1);
}

TEST(CorrectableTerminal, FailReleasesStoredCallbacks) {
  auto resource = std::make_shared<int>(7);
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  c.OnUpdate([resource](const View<int>&) {});
  c.OnFinal([resource](const View<int>&) {});
  src.Fail(Status::Timeout());
  EXPECT_EQ(resource.use_count(), 1);
}

TEST(CorrectableTerminal, CallbackAttachedDuringFinalFireRunsExactlyOnce) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  int inner = 0;
  c.OnFinal([&](const View<int>&) {
    c.OnFinal([&](const View<int>&) { inner++; });  // attach while terminal fire runs
  });
  src.Close(1, ConsistencyLevel::kStrong);
  EXPECT_EQ(inner, 1);
}

TEST(CorrectableTerminal, UpdateCallbackAttachedDuringUpdateFiresOnce) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  int inner = 0;
  c.OnUpdate([&](const View<int>&) {
    c.OnUpdate([&](const View<int>&) { inner++; });  // replays the pending view at attach
  });
  src.Update(1, ConsistencyLevel::kWeak);
  EXPECT_EQ(inner, 1);  // exactly once: attach-replay, not a second live delivery
}

TEST(CorrectableTerminal, CallbackFailingSourceDuringUpdateIsSafe) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  int errors = 0;
  c.OnError([&](const Status&) { errors++; });
  c.OnUpdate([&](const View<int>&) { src.Fail(Status::Aborted("mid-update")); });
  src.Update(1, ConsistencyLevel::kWeak);
  EXPECT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(errors, 1);
  // The error fire consumed the callback lists; a second Fail is a no-op.
  EXPECT_FALSE(src.Fail(Status::Internal("late")));
}

}  // namespace
}  // namespace icg
