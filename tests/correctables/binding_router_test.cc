// BindingRouter semantics against synthetic shard bindings: per-key delegation,
// coalescing scope, and cross-shard multiget scatter-gather (ordering, merge,
// confirmation reconstruction, error fan-in).
#include "src/correctables/binding_router.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/correctables/client.h"

namespace icg {
namespace {

// A synchronous shard binding: every read key answers "<name>/<key>", every write is
// acknowledged, and both are packed like a store's answer (PackRead / PackWriteAck, so a
// multiget carries its per-key detail). When `confirm_finals` is set, the strong
// final of a multi-level read arrives as a §5.2 digest confirmation instead of a value.
class FakeShardBinding : public Binding {
 public:
  explicit FakeShardBinding(std::string name, bool confirm_finals = false)
      : name_(std::move(name)), confirm_finals_(confirm_finals) {}

  std::string Name() const override { return name_; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }
  bool SupportsBatchedReads() const override { return supports_batched; }
  bool SupportsBatchedWrites() const override { return supports_batched; }

  bool supports_batched = true;
  int plans = 0;
  Status fail_final = Status::Ok();  // non-OK: the strong view reports this error
  std::vector<Operation> planned_ops;  // every operation this shard was asked to serve
  std::vector<std::string>* plan_log = nullptr;  // if set: names of planning shards, in order

  InvocationPlan PlanInvocation(const Operation& op, const LevelSet& levels) override {
    plans++;
    planned_ops.push_back(op);
    if (plan_log != nullptr) {
      plan_log->push_back(name_);
    }
    InvocationPlan plan;
    if (op.type == OpType::kMultiPut) {
      // Batched write: acknowledge the whole batch once at the strongest level.
      plan.AddStep(levels.strongest(), [this, level = levels.strongest()](
                                           const Operation& puts, LevelEmitter emit) {
        const WriteRequest request = WriteRequest::Of(puts);
        emit(level, fail_final.ok()
                        ? StatusOr<OpResult>(PackWriteAck(request.shape, request.writes))
                        : StatusOr<OpResult>(fail_final));
      });
      return plan;
    }
    plan.AddSpan(levels.levels(), [this, levels](const Operation& o, LevelEmitter emit) {
      const bool multi_level = !levels.single();
      const ReadRequest request = ReadRequest::Of(o);
      const OpResult result = PackRead(
          request.shape, request.keys.size(), [this, &request](size_t i) {
            OpResult hit;
            hit.found = true;
            hit.value = name_ + "/" + request.keys[i];
            return std::optional<OpResult>(std::move(hit));
          });
      if (multi_level) {
        emit(levels.weakest(), result);
      }
      if (!fail_final.ok()) {
        emit(levels.strongest(), fail_final);
      } else if (confirm_finals_ && multi_level) {
        emit(levels.strongest(), OpResult{}, ResponseKind::kConfirmation);
      } else {
        emit(levels.strongest(), result);
      }
    });
    return plan;
  }

 private:
  std::string name_;
  bool confirm_finals_;
};

// Routes by the numeric suffix of the key ("k7" -> shard 7 % n).
ShardFn SuffixShardFn(size_t n) {
  return [n](const std::string& key) -> size_t {
    return static_cast<size_t>(key.back() - '0') % n;
  };
}

std::string Joined(std::initializer_list<std::string> parts) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) {
      out += kMultiValueSeparator;
    }
    out += part;
  }
  return out;
}

struct RouterFixture {
  std::shared_ptr<FakeShardBinding> s0 = std::make_shared<FakeShardBinding>("s0");
  std::shared_ptr<FakeShardBinding> s1 = std::make_shared<FakeShardBinding>("s1");
  std::shared_ptr<BindingRouter> router =
      std::make_shared<BindingRouter>(std::vector<std::shared_ptr<Binding>>{s0, s1},
                                      SuffixShardFn(2));
  CorrectableClient client{router};
};

TEST(BindingRouter, AdvertisesChildLevelsAndName) {
  RouterFixture f;
  EXPECT_EQ(f.router->SupportedLevels(), f.s0->SupportedLevels());
  EXPECT_EQ(f.router->Name(), "router(s0 x2)");
  EXPECT_EQ(f.router->num_shards(), 2u);
}

TEST(BindingRouter, RoutesSingleKeyOpsToOwningShard) {
  RouterFixture f;
  auto a = f.client.InvokeStrong(Operation::Get("k0"));
  auto b = f.client.InvokeStrong(Operation::Get("k1"));
  auto c = f.client.InvokeStrong(Operation::Get("k2"));
  EXPECT_EQ(a.Final().value().value, "s0/k0");
  EXPECT_EQ(b.Final().value().value, "s1/k1");
  EXPECT_EQ(c.Final().value().value, "s0/k2");
  EXPECT_EQ(f.s0->plans, 2);
  EXPECT_EQ(f.s1->plans, 1);
}

TEST(BindingRouter, CoalescingScopeNamesEpochAndShard) {
  RouterFixture f;
  EXPECT_EQ(f.router->CoalescingScope(Operation::Get("k0")), "0:0");
  EXPECT_EQ(f.router->CoalescingScope(Operation::Get("k3")), "0:1");
  // Same key, same scope — stable across calls.
  EXPECT_EQ(f.router->CoalescingScope(Operation::Get("k0")),
            f.router->CoalescingScope(Operation::Get("k0")));
  // A ring installation bumps the epoch component, so pre- and post-rebalance traffic
  // never shares a scope even when the shard index happens to coincide.
  ASSERT_TRUE(f.router
                  ->ApplyRing(3, {f.s0, f.s1}, SuffixShardFn(2))
                  .ok());
  EXPECT_EQ(f.router->CoalescingScope(Operation::Get("k0")), "3:0");
}

TEST(BindingRouter, SingleShardMultigetDelegatesWholesale) {
  RouterFixture f;
  auto c = f.client.InvokeStrong(Operation::MultiGet({"k0", "k2", "k4"}));
  EXPECT_EQ(c.Final().value().value, Joined({"s0/k0", "s0/k2", "s0/k4"}));
  EXPECT_EQ(f.s0->plans, 1);
  EXPECT_EQ(f.s1->plans, 0);  // never consulted
}

TEST(BindingRouter, CrossShardMultigetMergesInRequestOrder) {
  RouterFixture f;
  auto c = f.client.Invoke(Operation::MultiGet({"k1", "k0", "k3", "k2"}));
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  // Positions interleave shards; the merged payload must follow the request order, not
  // per-shard grouping.
  EXPECT_EQ(c.Final().value().value, Joined({"s1/k1", "s0/k0", "s1/k3", "s0/k2"}));
  EXPECT_EQ(c.Final().value().seqno, 4);
  EXPECT_TRUE(c.Final().value().found);
  // Full incremental sequence: one merged preliminary, one merged final.
  EXPECT_EQ(c.views_delivered(), 2);
}

TEST(BindingRouter, CrossShardMultigetViewsStayMonotone) {
  RouterFixture f;
  auto c = f.client.Invoke(Operation::MultiGet({"k0", "k1"}));
  // Two views delivered and the last one strong: the pipeline would have suppressed the
  // weak view (views_delivered == 1) had the merged sequence arrived out of order.
  // (Callback-level ordering over a live loop is covered by the routing integration
  // test; this synchronous binding resolves before callbacks could attach.)
  EXPECT_EQ(c.views_delivered(), 2);
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.LatestView().level, ConsistencyLevel::kStrong);
  EXPECT_EQ(f.client.stats().stale_views_dropped, 0);
}

TEST(BindingRouter, AllShardsConfirmingYieldsMergedConfirmation) {
  auto s0 = std::make_shared<FakeShardBinding>("s0", /*confirm_finals=*/true);
  auto s1 = std::make_shared<FakeShardBinding>("s1", /*confirm_finals=*/true);
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{s0, s1}, SuffixShardFn(2));
  CorrectableClient client(router);

  auto c = client.Invoke(Operation::MultiGet({"k0", "k1"}));
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  // Confirmation close: the final view carries the preliminary's merged value.
  EXPECT_TRUE(c.LatestView().confirmed_preliminary);
  EXPECT_EQ(c.Final().value().value, Joined({"s0/k0", "s1/k1"}));
  EXPECT_EQ(client.stats().confirmations, 1);
}

TEST(BindingRouter, MixedConfirmationReconstructsConfirmedShardsValue) {
  auto s0 = std::make_shared<FakeShardBinding>("s0", /*confirm_finals=*/true);
  auto s1 = std::make_shared<FakeShardBinding>("s1", /*confirm_finals=*/false);
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{s0, s1}, SuffixShardFn(2));
  CorrectableClient client(router);

  auto c = client.Invoke(Operation::MultiGet({"k0", "k1"}));
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  // s0 confirmed (value reconstructed from its preliminary), s1 sent a full final: the
  // merged final is a full value, not a confirmation.
  EXPECT_FALSE(c.LatestView().confirmed_preliminary);
  EXPECT_EQ(c.Final().value().value, Joined({"s0/k0", "s1/k1"}));
}

TEST(BindingRouter, ShardFinalErrorFailsTheMergedFinal) {
  RouterFixture f;
  f.s1->fail_final = Status::Unavailable("shard 1 down");
  auto c = f.client.Invoke(Operation::MultiGet({"k0", "k1"}));
  ASSERT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.error().code(), StatusCode::kUnavailable);
  // The merged preliminary still got through before the final failed.
  EXPECT_EQ(c.views_delivered(), 1);
}

TEST(BindingRouter, EmptyMultigetRejected) {
  RouterFixture f;
  auto c = f.client.InvokeStrong(Operation::MultiGet({}));
  EXPECT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.error().code(), StatusCode::kInvalidArgument);
}

TEST(BindingRouter, WritesRouteByKey) {
  RouterFixture f;
  auto c = f.client.InvokeStrong(Operation::Put("k1", "v"));
  EXPECT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(f.s0->plans, 0);
  EXPECT_EQ(f.s1->plans, 1);
}

// --- Cross-tick write batching through the router -------------------------------------

TEST(BindingRouter, BatchedWritesNeverCrossShardBoundaries) {
  EventLoop loop;
  auto s0 = std::make_shared<FakeShardBinding>("s0");
  auto s1 = std::make_shared<FakeShardBinding>("s1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{s0, s1}, SuffixShardFn(2));
  CorrectableClient client(router, &loop);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  client.SetBatchConfig(batch);

  // Four writes inside one window, interleaving shards. The scheduler queues them per
  // scope, so each shard must receive exactly one multiput carrying only its own keys.
  auto a = client.InvokeStrong(Operation::Put("k0", "a"));
  auto b = client.InvokeStrong(Operation::Put("k1", "b"));
  auto c = client.InvokeStrong(Operation::Put("k2", "c"));
  auto d = client.InvokeStrong(Operation::Put("k3", "d"));
  EXPECT_EQ(s0->plans + s1->plans, 0);  // nothing reaches a shard before the flush
  loop.Run();

  for (const auto& result : {a, b, c, d}) {
    EXPECT_EQ(result.state(), CorrectableState::kFinal);
  }
  ASSERT_EQ(s0->planned_ops.size(), 1u);
  ASSERT_EQ(s1->planned_ops.size(), 1u);
  EXPECT_EQ(s0->planned_ops[0].type, OpType::kMultiPut);
  EXPECT_EQ(s0->planned_ops[0].keys, (std::vector<std::string>{"k0", "k2"}));
  EXPECT_EQ(s0->planned_ops[0].values, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(s1->planned_ops[0].type, OpType::kMultiPut);
  EXPECT_EQ(s1->planned_ops[0].keys, (std::vector<std::string>{"k1", "k3"}));
  EXPECT_EQ(client.stats().batched_writes, 4);
  EXPECT_EQ(client.stats().cross_tick_batches, 2);
}

TEST(BindingRouter, RebalanceMidWindowReRoutesThePendingBatch) {
  EventLoop loop;
  auto s0 = std::make_shared<FakeShardBinding>("s0");
  auto s1 = std::make_shared<FakeShardBinding>("s1");
  // A mutable ring: keys map through `owner`, which the test rewires mid-window.
  auto owner = std::make_shared<std::map<std::string, size_t>>();
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{s0, s1},
      [owner](const std::string& key) -> size_t {
        auto it = owner->find(key);
        return it != owner->end() ? it->second : 0;
      });
  CorrectableClient client(router, &loop);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  client.SetBatchConfig(batch);

  (*owner)["ka"] = 0;
  (*owner)["kb"] = 0;
  auto a = client.InvokeStrong(Operation::Put("ka", "1"));
  auto b = client.InvokeStrong(Operation::Put("kb", "2"));
  // Rebalance while the batch window is still open: kb moves to shard 1. The flush must
  // consult the *current* ring and split the cohort instead of sending kb to shard 0.
  (*owner)["kb"] = 1;
  loop.Run();

  EXPECT_EQ(a.state(), CorrectableState::kFinal);
  EXPECT_EQ(b.state(), CorrectableState::kFinal);
  ASSERT_EQ(s0->planned_ops.size(), 1u);
  ASSERT_EQ(s1->planned_ops.size(), 1u);
  EXPECT_EQ(s0->planned_ops[0].type, OpType::kPut);  // a lone write launches unbatched
  EXPECT_EQ(s0->planned_ops[0].key, "ka");
  EXPECT_EQ(s1->planned_ops[0].type, OpType::kPut);
  EXPECT_EQ(s1->planned_ops[0].key, "kb");
}

// A ring change that moves only some keys of a pending read cohort: the keys that
// stayed still go out as one multiget to their shard, the moved ones as another to
// their new shard, launched in first-arrival order, and every waiter — two of them on
// one moved key — gets its own key's value.
TEST(BindingRouter, PartialMoveMidWindowRegroupsOnlyTheMovedReads) {
  EventLoop loop;
  auto s0 = std::make_shared<FakeShardBinding>("s0");
  auto s1 = std::make_shared<FakeShardBinding>("s1");
  std::vector<std::string> plan_log;
  s0->plan_log = &plan_log;
  s1->plan_log = &plan_log;
  auto owner = std::make_shared<std::map<std::string, size_t>>();
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{s0, s1},
      [owner](const std::string& key) -> size_t {
        auto it = owner->find(key);
        return it != owner->end() ? it->second : 0;
      });
  CorrectableClient client(router, &loop);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  client.SetBatchConfig(batch);

  for (const char* key : {"ka", "kb", "kc", "kd"}) {
    (*owner)[key] = 0;
  }
  std::vector<std::pair<std::string, Correctable<OpResult>>> reads;
  for (const char* key : {"ka", "kb", "kc", "kb", "kd"}) {
    reads.emplace_back(key, client.Invoke(Operation::Get(key)));
  }
  (*owner)["kb"] = 1;
  (*owner)["kd"] = 1;
  loop.Run();

  EXPECT_EQ(plan_log, (std::vector<std::string>{"s0", "s1"}));
  ASSERT_EQ(s0->planned_ops.size(), 1u);
  ASSERT_EQ(s1->planned_ops.size(), 1u);
  EXPECT_EQ(s0->planned_ops[0].type, OpType::kMultiGet);
  EXPECT_EQ(s0->planned_ops[0].keys, (std::vector<std::string>{"ka", "kc"}));
  EXPECT_EQ(s1->planned_ops[0].type, OpType::kMultiGet);
  EXPECT_EQ(s1->planned_ops[0].keys, (std::vector<std::string>{"kb", "kd"}));
  for (auto& [key, read] : reads) {
    ASSERT_EQ(read.state(), CorrectableState::kFinal) << key;
    const std::string shard = (*owner)[key] == 0 ? "s0" : "s1";
    EXPECT_EQ(read.Final().value().value, shard + "/" + key);
  }
  EXPECT_EQ(client.stats().cross_tick_batches, 2);
  EXPECT_EQ(client.stats().coalesced_reads, 3);  // 2 reads share one launch, 3 another
}

TEST(BindingRouter, CrossShardMultiPutRejectedWhenBypassingTheScheduler) {
  RouterFixture f;
  auto c = f.client.InvokeStrong(Operation::MultiPut({"k0", "k1"}, {"a", "b"}));
  ASSERT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.error().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(f.s0->plans, 0);
  EXPECT_EQ(f.s1->plans, 0);
}

TEST(BindingRouter, ShardLocalMultiPutDelegatesWholesale) {
  RouterFixture f;
  auto c = f.client.InvokeStrong(Operation::MultiPut({"k0", "k2"}, {"a", "b"}));
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.Final().value().seqno, 2);
  EXPECT_EQ(f.s0->plans, 1);
  EXPECT_EQ(f.s1->plans, 0);
}

TEST(BindingRouter, BatchingCapabilitiesPassThroughShards) {
  RouterFixture f;
  EXPECT_TRUE(f.router->SupportsBatchedReads());
  EXPECT_TRUE(f.router->SupportsBatchedWrites());
}

TEST(BindingRouter, OneNonBatchingShardDisablesBatchingForTheWholeRouter) {
  // Heterogeneous backends: if any shard cannot serve multiget/multiput, the router must
  // not advertise batching — the pipeline would queue batches that shard then rejects.
  RouterFixture f;
  f.s1->supports_batched = false;
  EXPECT_FALSE(f.router->SupportsBatchedReads());
  EXPECT_FALSE(f.router->SupportsBatchedWrites());

  // And with batching advertised off, windowed writes fall back to per-write launches.
  EventLoop loop;
  CorrectableClient client(f.router, &loop);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  client.SetBatchConfig(batch);
  auto a = client.InvokeStrong(Operation::Put("k0", "a"));
  auto b = client.InvokeStrong(Operation::Put("k2", "b"));
  loop.Run();
  EXPECT_EQ(a.state(), CorrectableState::kFinal);
  EXPECT_EQ(b.state(), CorrectableState::kFinal);
  ASSERT_EQ(f.s0->planned_ops.size(), 2u);
  EXPECT_EQ(f.s0->planned_ops[0].type, OpType::kPut);
  EXPECT_EQ(f.s0->planned_ops[1].type, OpType::kPut);
  EXPECT_EQ(client.stats().batched_writes, 0);
}

// --- Live ring installation (ApplyRing) -----------------------------------------------

TEST(BindingRouter, ApplyRingRejectsStaleEpochs) {
  RouterFixture f;
  auto s2 = std::make_shared<FakeShardBinding>("s2");
  // Same epoch (0) and an older one: both stale, both rejected, ring untouched.
  EXPECT_EQ(f.router->ApplyRing(0, {f.s0, f.s1, s2}, SuffixShardFn(3)).code(),
            StatusCode::kConflict);
  EXPECT_EQ(f.router->num_shards(), 2u);
  EXPECT_EQ(f.router->ring_epoch(), 0u);

  ASSERT_TRUE(f.router->ApplyRing(2, {f.s0, f.s1, s2}, SuffixShardFn(3)).ok());
  EXPECT_EQ(f.router->ring_epoch(), 2u);
  EXPECT_EQ(f.router->ApplyRing(2, {f.s0, f.s1}, SuffixShardFn(2)).code(),
            StatusCode::kConflict);
  EXPECT_EQ(f.router->num_shards(), 3u);  // the stale shrink did not land
}

TEST(BindingRouter, ApplyRingAddsShardAndReroutes) {
  RouterFixture f;
  auto s2 = std::make_shared<FakeShardBinding>("s2");
  // Under the 2-shard ring, k2 belongs to s0.
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k2")).Final().value().value, "s0/k2");
  ASSERT_TRUE(f.router->ApplyRing(1, {f.s0, f.s1, s2}, SuffixShardFn(3)).ok());
  EXPECT_EQ(f.router->num_shards(), 3u);
  // The same key now routes to the newcomer; survivors keep their other keys.
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k2")).Final().value().value, "s2/k2");
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k0")).Final().value().value, "s0/k0");
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k1")).Final().value().value, "s1/k1");
}

TEST(BindingRouter, ApplyRingRemovalRoutesDepartedKeysToSurvivors) {
  RouterFixture f;
  auto c_before = f.client.InvokeStrong(Operation::Get("k1"));
  EXPECT_EQ(c_before.Final().value().value, "s1/k1");
  ASSERT_TRUE(f.router->ApplyRing(1, {f.s0}, [](const std::string&) -> size_t { return 0; })
                  .ok());
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k1")).Final().value().value, "s0/k1");
}

// --- Per-shard backpressure -----------------------------------------------------------

// Holds every planned fetch open until released, so tests can park invocations
// in-flight on a shard and observe the router's outstanding accounting.
class HoldingBinding : public Binding {
 public:
  explicit HoldingBinding(std::string name) : name_(std::move(name)) {}

  std::string Name() const override { return name_; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }
  InvocationPlan PlanInvocation(const Operation& /*op*/, const LevelSet& levels) override {
    InvocationPlan plan;
    plan.AddSpan(levels.levels(), [this](const Operation& o, LevelEmitter emit) {
      held_.emplace_back(o, std::move(emit));
    });
    return plan;
  }
  size_t held() const { return held_.size(); }
  // Reports one response through the emitter of the `index`-th parked invocation,
  // which stays parked.
  void EmitHeld(size_t index, ConsistencyLevel level, StatusOr<OpResult> result,
                ResponseKind kind = ResponseKind::kValue) {
    held_.at(index).second(level, std::move(result), kind);
  }
  void ReleaseAll() {
    std::vector<std::pair<Operation, LevelEmitter>> draining;
    draining.swap(held_);
    for (auto& [op, emit] : draining) {
      OpResult result;
      result.found = true;
      result.value = name_ + "/" + op.key;
      emit(ConsistencyLevel::kStrong, result);
    }
  }

 private:
  std::string name_;
  std::vector<std::pair<Operation, LevelEmitter>> held_;
};

TEST(BindingRouter, HotShardAloneShedsWithRetryableStatus) {
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  router->SetShardQueueLimit(2);
  CorrectableClient client(router);

  // Fill shard 0's queue; both invocations park in flight.
  auto a = client.InvokeStrong(Operation::Get("k0"));
  auto b = client.InvokeStrong(Operation::Get("k2"));
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 2u);

  // The next shard-0 invocation is shed with a retryable OVERLOADED error...
  auto shed = client.InvokeStrong(Operation::Get("k4"));
  ASSERT_EQ(shed.state(), CorrectableState::kError);
  EXPECT_EQ(shed.error().code(), StatusCode::kOverloaded);
  EXPECT_TRUE(IsRetryable(shed.error()));
  EXPECT_EQ(router->LoadSnapshot().shards[0].sheds, 1);
  EXPECT_EQ(client.stats().overload_sheds, 1);

  // ...while shard 1 keeps admitting: the hot shard degrades alone.
  auto healthy = client.InvokeStrong(Operation::Get("k1"));
  EXPECT_EQ(healthy.state(), CorrectableState::kUpdating);
  EXPECT_EQ(h1->held(), 1u);
  EXPECT_EQ(router->LoadSnapshot().shards[1].sheds, 0);

  // Draining the queue frees the slots; the retried invocation is admitted.
  h0->ReleaseAll();
  EXPECT_EQ(a.Final().value().value, "h0/k0");
  EXPECT_EQ(b.Final().value().value, "h0/k2");
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 0u);
  auto retried = client.InvokeStrong(Operation::Get("k4"));
  EXPECT_EQ(retried.state(), CorrectableState::kUpdating);
  EXPECT_EQ(h0->held(), 1u);
  h0->ReleaseAll();
  h1->ReleaseAll();
  EXPECT_EQ(retried.Final().value().value, "h0/k4");
}

// An invocation's slot is released by its first strongest-level emission, whichever
// kind it is, and never again: a repeated final must not free the slot another
// invocation still holds.
TEST(BindingRouter, OutstandingSlotReleasedExactlyOnceForEveryKindOfFinal) {
  OpResult value;
  value.found = true;
  value.value = "v";
  const std::vector<std::pair<StatusOr<OpResult>, ResponseKind>> finals = {
      {value, ResponseKind::kValue},
      {OpResult{}, ResponseKind::kConfirmation},
      {Status::Unavailable("coordinator down"), ResponseKind::kValue},
  };
  for (const auto& [final_result, kind] : finals) {
    SCOPED_TRACE(final_result.ok() ? "value or confirmation" : "error");
    auto h0 = std::make_shared<HoldingBinding>("h0");
    auto router = std::make_shared<BindingRouter>(
        std::vector<std::shared_ptr<Binding>>{h0},
        [](const std::string&) -> size_t { return 0; });
    CorrectableClient client(router);
    auto first = client.Invoke(Operation::Get("k0"));
    auto second = client.Invoke(Operation::Get("k1"));
    auto outstanding = [&router] { return router->LoadSnapshot().shards[0].outstanding; };
    ASSERT_EQ(outstanding(), 2u);

    h0->EmitHeld(0, ConsistencyLevel::kWeak, value);  // a preliminary keeps the slot
    EXPECT_EQ(outstanding(), 2u);
    h0->EmitHeld(0, ConsistencyLevel::kStrong, final_result, kind);
    EXPECT_EQ(outstanding(), 1u);
    EXPECT_NE(first.state(), CorrectableState::kUpdating);
    h0->EmitHeld(0, ConsistencyLevel::kStrong, final_result, kind);  // repeated final
    EXPECT_EQ(outstanding(), 1u);

    h0->ReleaseAll();
    EXPECT_EQ(second.state(), CorrectableState::kFinal);
    EXPECT_EQ(outstanding(), 0u);
  }
}

TEST(BindingRouter, OutstandingAccountingSurvivesRingChanges) {
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  CorrectableClient client(router);

  auto parked_on_h0 = client.InvokeStrong(Operation::Get("k0"));
  auto parked_on_h1 = client.InvokeStrong(Operation::Get("k1"));
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 1u);
  EXPECT_EQ(router->LoadSnapshot().shards[1].outstanding, 1u);

  // Remove h1 from the ring while it still holds an invocation. The surviving shard's
  // slot accounting is untouched, and the departed shard's eventual completion drains
  // into its retired counter block instead of corrupting the new ring's slots.
  ASSERT_TRUE(router->ApplyRing(1, {h0}, [](const std::string&) -> size_t { return 0; })
                  .ok());
  EXPECT_EQ(router->num_shards(), 1u);
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 1u);
  h1->ReleaseAll();  // drains the in-flight invocation against the departed shard
  EXPECT_EQ(parked_on_h1.Final().value().value, "h1/k1");
  // The survivor still holds its own slot.
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 1u);
  h0->ReleaseAll();
  EXPECT_EQ(parked_on_h0.Final().value().value, "h0/k0");
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 0u);
}

TEST(BindingRouter, CrashedShardRetiresCountersWithoutUnderflow) {
  // The failover regression: a shard crashes with in-flight invocations pinning its
  // outstanding counter at the queue limit, the detector removes it from the ring, and
  // whatever terminals eventually arrive (or never do) must neither underflow the
  // counter nor leak phantom load into the successor ring.
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  router->SetShardQueueLimit(2);
  CorrectableClient client(router);

  // Fill the doomed shard to its limit; a crashed coordinator never answers, so these
  // slots would be pinned forever...
  auto a = client.InvokeStrong(Operation::Get("k0"));
  auto b = client.InvokeStrong(Operation::Get("k2"));
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 2u);
  auto shed = client.InvokeStrong(Operation::Get("k4"));
  EXPECT_EQ(shed.state(), CorrectableState::kError);
  EXPECT_EQ(router->LoadSnapshot().shards[0].sheds, 1);

  // ...until failover retires the block atomically with the ring swap: index 0 of the
  // new ring (the survivor) starts clean.
  ASSERT_TRUE(
      router->ApplyRing(1, {h1}, [](const std::string&) -> size_t { return 0; }).ok());
  EXPECT_EQ(router->num_shards(), 1u);
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 0u);

  // Late terminals from the corpse land on the retired block and clamp at zero instead
  // of wrapping a size_t (the pre-retirement code asserted/underflowed here).
  h0->ReleaseAll();
  EXPECT_EQ(a.state(), CorrectableState::kFinal);
  EXPECT_EQ(b.state(), CorrectableState::kFinal);
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 0u);

  // The survivor serves the whole keyspace with clean admission accounting.
  auto c = client.InvokeStrong(Operation::Get("k4"));
  EXPECT_EQ(c.state(), CorrectableState::kUpdating);
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 1u);
  h1->ReleaseAll();
  EXPECT_EQ(c.Final().value().value, "h1/k4");
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 0u);

  // Re-admission after recovery: the returning shard gets a fresh, unretired block and
  // counts from zero again.
  ASSERT_TRUE(router->ApplyRing(2, {h1, h0}, SuffixShardFn(2)).ok());
  EXPECT_EQ(router->LoadSnapshot().shards[1].outstanding, 0u);
  auto d = client.InvokeStrong(Operation::Get("k1"));  // suffix 1 -> index 1 = h0
  EXPECT_EQ(router->LoadSnapshot().shards[1].outstanding, 1u);
  h0->ReleaseAll();
  EXPECT_EQ(d.Final().value().value, "h0/k1");
  EXPECT_EQ(router->LoadSnapshot().shards[1].outstanding, 0u);
}

TEST(BindingRouter, ZeroLimitDisablesShedding) {
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0}, [](const std::string&) -> size_t { return 0; });
  CorrectableClient client(router);
  std::vector<Correctable<OpResult>> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(client.InvokeStrong(Operation::Get("k" + std::to_string(i))));
  }
  EXPECT_EQ(router->LoadSnapshot().shards[0].outstanding, 64u);
  EXPECT_EQ(router->LoadSnapshot().total_sheds(), 0);
  h0->ReleaseAll();
  for (auto& handle : handles) {
    EXPECT_EQ(handle.state(), CorrectableState::kFinal);
  }
}

// --- RouterLoadSnapshot: one consistent, epoch-safe read of the load surface ----------

TEST(BindingRouter, LoadSnapshotReportsEpochAndPerShardRows) {
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  router->SetShardQueueLimit(1);
  CorrectableClient client(router);

  auto parked = client.InvokeStrong(Operation::Get("k0"));
  auto shed = client.InvokeStrong(Operation::Get("k2"));
  EXPECT_EQ(shed.state(), CorrectableState::kError);

  const RouterLoadSnapshot snapshot = router->LoadSnapshot();
  EXPECT_EQ(snapshot.epoch, 0u);
  ASSERT_EQ(snapshot.shards.size(), 2u);
  EXPECT_EQ(snapshot.shards[0].outstanding, 1u);
  EXPECT_EQ(snapshot.shards[0].sheds, 1);
  EXPECT_EQ(snapshot.shards[1].outstanding, 0u);
  EXPECT_EQ(snapshot.shards[1].sheds, 0);
  EXPECT_EQ(snapshot.retired_sheds, 0);
  EXPECT_EQ(snapshot.total_outstanding(), 1u);
  EXPECT_EQ(snapshot.total_sheds(), 1);
  h0->ReleaseAll();
  EXPECT_EQ(parked.state(), CorrectableState::kFinal);
}

TEST(BindingRouter, LoadSnapshotTotalShedsIsMonotoneAcrossRingChanges) {
  // The torn-read hazard the snapshot exists to close: per-index shed counters vanish
  // with their block when a shard departs the ring, so a controller differencing raw
  // reads across an ApplyRing would see sheds go BACKWARD and misread a membership
  // change as recovery. total_sheds() must never decrease, whatever the ring does.
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  router->SetShardQueueLimit(1);
  CorrectableClient client(router);

  // Shed twice on shard 0 and once on shard 1.
  auto parked0 = client.InvokeStrong(Operation::Get("k0"));
  client.InvokeStrong(Operation::Get("k2"));
  client.InvokeStrong(Operation::Get("k4"));
  auto parked1 = client.InvokeStrong(Operation::Get("k1"));
  client.InvokeStrong(Operation::Get("k3"));
  const int64_t before = router->LoadSnapshot().total_sheds();
  EXPECT_EQ(before, 3);

  // Shard 0 departs. Its per-index counter block is retired, but the snapshot folds
  // the retired sheds into the aggregate: nothing is lost, nothing double-counts.
  ASSERT_TRUE(
      router->ApplyRing(1, {h1}, [](const std::string&) -> size_t { return 0; }).ok());
  const RouterLoadSnapshot after = router->LoadSnapshot();
  EXPECT_EQ(after.epoch, 1u);
  ASSERT_EQ(after.shards.size(), 1u);
  EXPECT_EQ(after.shards[0].sheds, 1);     // the survivor keeps its own count
  EXPECT_EQ(after.retired_sheds, 2);       // the departed shard's sheds, preserved
  EXPECT_EQ(after.total_sheds(), before);  // monotone: no regression at the swap

  // New sheds on the survivor keep accumulating on top of the retired aggregate.
  client.InvokeStrong(Operation::Get("k9"));
  EXPECT_EQ(router->LoadSnapshot().total_sheds(), before + 1);
  h0->ReleaseAll();
  h1->ReleaseAll();
  EXPECT_EQ(parked0.state(), CorrectableState::kFinal);
  EXPECT_EQ(parked1.state(), CorrectableState::kFinal);
}

}  // namespace
}  // namespace icg
