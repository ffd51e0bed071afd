// Failure injection across the full stack: crashes, partitions, message loss, and the
// resulting Correctable error/timeout behaviour.
#include <gtest/gtest.h>

#include "src/harness/deployment.h"

namespace icg {
namespace {

TEST(KvFailures, StrongReadTimesOutWithoutQuorum) {
  SimWorld world(1, 0.0);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  auto stack = MakeCassandraStack(world, KvConfig{}, binding);
  stack.cluster->Preload("k", "v");
  world.network().Crash(stack.cluster->ReplicaIn(Region::kIreland)->id());
  world.network().Crash(stack.cluster->ReplicaIn(Region::kVirginia)->id());

  auto c = stack.client->InvokeStrong(Operation::Get("k"));
  world.loop().Run();
  EXPECT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.Final().status().code(), StatusCode::kTimeout);
}

TEST(KvFailures, IcgDeliversPreliminaryEvenWithoutQuorum) {
  // The headline resilience property of ICG: weak data now, even if strong never comes.
  SimWorld world(1, 0.0);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  auto stack = MakeCassandraStack(world, KvConfig{}, binding);
  stack.cluster->Preload("k", "v");
  world.network().Crash(stack.cluster->ReplicaIn(Region::kIreland)->id());
  world.network().Crash(stack.cluster->ReplicaIn(Region::kVirginia)->id());

  bool got_preliminary = false;
  auto c = stack.client->Invoke(Operation::Get("k"));
  c.OnUpdate([&](const View<OpResult>& v) {
    got_preliminary = true;
    EXPECT_EQ(v.value.value, "v");
  });
  world.loop().Run();
  EXPECT_TRUE(got_preliminary);
  EXPECT_EQ(c.state(), CorrectableState::kError);  // final timed out
}

TEST(KvFailures, PartitionHealsAndReadsRecover) {
  SimWorld world(2, 0.0);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  auto stack = MakeCassandraStack(world, KvConfig{}, binding);
  stack.cluster->Preload("k", "v");
  const NodeId frk = stack.cluster->ReplicaIn(Region::kFrankfurt)->id();
  const NodeId irl = stack.cluster->ReplicaIn(Region::kIreland)->id();
  const NodeId vrg = stack.cluster->ReplicaIn(Region::kVirginia)->id();
  world.network().Partition(frk, irl);
  world.network().Partition(frk, vrg);

  auto blocked = stack.client->InvokeStrong(Operation::Get("k"));
  world.loop().Run();
  EXPECT_EQ(blocked.state(), CorrectableState::kError);

  world.network().Heal(frk, irl);
  world.network().Heal(frk, vrg);
  auto recovered = stack.client->InvokeStrong(Operation::Get("k"));
  world.loop().Run();
  ASSERT_EQ(recovered.state(), CorrectableState::kFinal);
  EXPECT_EQ(recovered.Final().value().value, "v");
}

TEST(KvFailures, CrashedReplicaMissesWritesUntilReadRepair) {
  SimWorld world(3, 0.0);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 3;
  auto stack = MakeCassandraStack(world, KvConfig{}, binding);
  stack.cluster->Preload("k", "old");
  KvReplica* vrg = stack.cluster->ReplicaIn(Region::kVirginia);
  world.network().Crash(vrg->id());

  stack.client->InvokeStrong(Operation::Put("k", "new"));
  world.loop().Run();
  EXPECT_EQ(vrg->LocalGet("k")->value, "old");  // missed the write while down

  world.network().Restart(vrg->id());
  // A full-quorum read merges fresh data and repairs the stale replica.
  auto c = stack.client->InvokeStrong(Operation::Get("k"));
  world.loop().Run();
  ASSERT_TRUE(c.Final().ok());
  EXPECT_EQ(c.Final().value().value, "new");
  world.loop().RunFor(Seconds(1));
  EXPECT_EQ(vrg->LocalGet("k")->value, "new");  // read repair healed it
}

TEST(ZabFailures, MinorityFollowerCrashHarmless) {
  SimWorld world(4, 0.0);
  auto stack = MakeZooKeeperStack(world, ZabConfig{});
  world.network().Crash(stack.cluster->ServerIn(Region::kVirginia)->id());
  auto c = stack.client->InvokeStrong(Operation::Enqueue("q", "x"));
  world.loop().Run();
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.Final().value().seqno, 0);
}

TEST(ZabFailures, LeaderPartitionBlocksCommits) {
  SimWorld world(5, 0.0);
  auto stack = MakeZooKeeperStack(world, ZabConfig{});
  stack.client->SetTimeout(Seconds(3));
  ZabServer* leader = stack.cluster->leader();
  for (const auto& server : stack.cluster->servers()) {
    if (server.get() != leader) {
      world.network().Partition(leader->id(), server->id());
    }
  }
  auto c = stack.client->InvokeStrong(Operation::Enqueue("q", "x"));
  world.loop().Run();
  EXPECT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.Final().status().code(), StatusCode::kTimeout);
}

TEST(ZabFailures, MessageLossToleratedByRetriesAtRecipeLevel) {
  SimWorld world(6, 0.0);
  auto stack = MakeZooKeeperStack(world, ZabConfig{});
  stack.cluster->PreloadQueue("q", 5, "t");
  // Low loss on every link; the ZK dequeue recipe's read-retry structure and Zab's
  // majority quorum absorb occasional losses. (Deterministic seed: this particular run
  // loses some messages yet completes.)
  world.network().SetLossProbability(0.02);
  StatusOr<OpResult> out(Status::Internal("none"));
  stack.zab_client->RecipeDequeueCzk("q", [&](StatusOr<OpResult> r) { out = std::move(r); });
  world.loop().RunFor(Seconds(10));
  if (out.ok() && out->found) {
    EXPECT_EQ(out->seqno, 0);
  }
  EXPECT_GT(world.network().dropped_messages(), -1);  // accounting exists either way
}

TEST(ClientTimeoutFailures, TimeoutDoesNotLeakIntoNextInvocation) {
  SimWorld world(7, 0.0);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  auto stack = MakeCassandraStack(world, KvConfig{}, binding);
  stack.cluster->Preload("k", "v");
  stack.client->SetTimeout(Millis(200));

  world.network().Crash(stack.cluster->ReplicaIn(Region::kIreland)->id());
  world.network().Crash(stack.cluster->ReplicaIn(Region::kVirginia)->id());
  auto failed = stack.client->InvokeStrong(Operation::Get("k"));
  world.loop().Run();
  EXPECT_EQ(failed.state(), CorrectableState::kError);

  world.network().Restart(stack.cluster->ReplicaIn(Region::kIreland)->id());
  auto ok = stack.client->InvokeStrong(Operation::Get("k"));
  world.loop().Run();
  EXPECT_EQ(ok.state(), CorrectableState::kFinal);
  EXPECT_EQ(stack.client->stats().timeouts, 1);
}

// --- Cross-tick batching under failure -----------------------------------------------
// Batching must not widen any failure's blast radius: a timeout fired while its waiter
// sits in a pending (not yet flushed) cohort fails that waiter alone, and a store error
// on a flushed batch fans out to exactly the waiters of that batch.

TEST(BatchFailures, TimeoutInsidePendingBatchFailsAlone) {
  SimWorld world(9, 0.0);
  BatchConfig batch;
  batch.batch_window = Millis(50);
  auto stack = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{},
                                  Region::kIreland, Region::kFrankfurt,
                                  {Region::kFrankfurt, Region::kIreland, Region::kVirginia},
                                  batch);
  stack.cluster->Preload("k", "v");

  // The doomed waiter's deadline expires at 10 ms — inside the 50 ms window, before the
  // cohort even reaches the store.
  stack.client->SetTimeout(Millis(10));
  auto doomed = stack.client->Invoke(Operation::Get("k"));
  stack.client->SetTimeout(0);
  auto survivor = stack.client->Invoke(Operation::Get("k"));
  world.loop().Run();

  ASSERT_EQ(doomed.state(), CorrectableState::kError);
  EXPECT_EQ(doomed.error().code(), StatusCode::kTimeout);
  ASSERT_EQ(survivor.state(), CorrectableState::kFinal);
  EXPECT_EQ(survivor.Final().value().value, "v");
  EXPECT_EQ(survivor.views_delivered(), 2);

  const ClientStats& stats = stack.client->stats();
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.errors, 0);  // the timeout is the only failure; the flush succeeded
  EXPECT_EQ(stats.cross_tick_batches, 1);
}

TEST(BatchFailures, StoreErrorOnBatchedReadFlushFansToExactlyThatBatch) {
  SimWorld world(10, 0.0);
  KvConfig kv;
  kv.read_timeout = Millis(300);  // the store's own quorum deadline, not a client timer
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 3;  // unreachable with a replica down
  BatchConfig batch;
  batch.batch_window = Millis(5);
  auto stack = MakeCassandraStack(world, kv, binding, Region::kIreland, Region::kFrankfurt,
                                  {Region::kFrankfurt, Region::kIreland, Region::kVirginia},
                                  batch);
  stack.cluster->Preload("k1", "v1");
  stack.cluster->Preload("k2", "v2");
  world.network().Crash(stack.cluster->ReplicaIn(Region::kVirginia)->id());

  // Same scope + level set: these two accumulate into one cohort and flush as a single
  // multiget, whose quorum cannot complete -> one store error for the whole batch.
  auto a = stack.client->InvokeStrong(Operation::Get("k1"));
  auto b = stack.client->InvokeStrong(Operation::Get("k2"));
  // Different level set: a separate batch on the same stack, which must stay healthy.
  auto healthy = stack.client->InvokeWeak(Operation::Get("k1"));
  world.loop().Run();

  ASSERT_EQ(a.state(), CorrectableState::kError);
  ASSERT_EQ(b.state(), CorrectableState::kError);
  EXPECT_EQ(a.error().code(), StatusCode::kTimeout);  // "multiread quorum not reached"
  EXPECT_EQ(b.error().code(), StatusCode::kTimeout);
  ASSERT_EQ(healthy.state(), CorrectableState::kFinal);
  EXPECT_EQ(healthy.Final().value().value, "v1");

  const ClientStats& stats = stack.client->stats();
  EXPECT_EQ(stats.errors, 2);    // both batch members failed through the store response
  EXPECT_EQ(stats.timeouts, 0);  // no client-side timer fired
}

TEST(BatchFailures, BatchedWriteRejectionFansToExactlyTheQueuedWriters) {
  SimWorld world(11, 0.0);
  BatchConfig batch;
  batch.batch_window = Millis(10);
  auto stack = MakeCausalStack(world, CausalConfig{}, Region::kIreland, Region::kIreland,
                               {Region::kIreland, Region::kFrankfurt, Region::kVirginia},
                               batch);
  stack.cluster->Preload("k1", "v1");
  stack.cache->Put("k1", OpResult{.found = true, .value = "v1", .seqno = -1, .version = {},
                                  .key_found = {}, .key_versions = {}});
  stack.binding->SetDisconnected(true);

  auto w1 = stack.client->InvokeStrong(Operation::Put("k1", "x"));
  auto w2 = stack.client->InvokeStrong(Operation::Put("k2", "y"));
  // A cache-level read is untouched by the batched writes' rejection.
  auto read = stack.client->InvokeWeak(Operation::Get("k1"));
  world.loop().Run();

  ASSERT_EQ(w1.state(), CorrectableState::kError);
  ASSERT_EQ(w2.state(), CorrectableState::kError);
  EXPECT_EQ(w1.error().code(), StatusCode::kUnavailable);
  EXPECT_EQ(w2.error().code(), StatusCode::kUnavailable);
  ASSERT_EQ(read.state(), CorrectableState::kFinal);
  EXPECT_EQ(read.Final().value().value, "v1");

  const ClientStats& stats = stack.client->stats();
  EXPECT_EQ(stats.errors, 2);
  EXPECT_EQ(stats.batched_writes, 2);
  EXPECT_EQ(stats.cross_tick_batches, 1);
}

// --- Live rebalancing under failure ---------------------------------------------------

TEST(RebalanceFailures, CoordinatorRemovedWithPendingWriteCohortReRoutes) {
  // Writes queue in a batch cohort aimed at one coordinator; that coordinator leaves the
  // ring before the window closes. The flush-time scope re-consult must re-route the
  // whole cohort through the successor ring: no write lost, none duplicated, and the
  // departed coordinator never sees the batch.
  SimWorld world(12, 0.0);
  BatchConfig batch;
  batch.batch_window = Millis(20);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{},
                                         Region::kIreland,
                                         {Region::kFrankfurt, Region::kIreland,
                                          Region::kVirginia},
                                         batch);

  // Two keys owned by the doomed coordinator's shard (probe the live ring).
  const NodeId doomed = stack.coordinator_ids().back();
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 2 && i < 400; ++i) {
    const std::string key = "reroute" + std::to_string(i);
    if (stack.shard_map().PrimaryFor(key) == doomed) {
      keys.push_back(key);
    }
  }
  ASSERT_EQ(keys.size(), 2u);

  auto w1 = stack.client()->InvokeStrong(Operation::Put(keys[0], "v1"));
  auto w2 = stack.client()->InvokeStrong(Operation::Put(keys[1], "v2"));
  EXPECT_EQ(stack.client()->stats().errors, 0);
  // Still inside the window: the cohort is pending, nothing has reached any store.
  const auto diff = stack.RemoveCoordinator(doomed);
  EXPECT_EQ(diff.removed_nodes, std::vector<NodeId>{doomed});
  world.loop().Run();

  // Exactly one terminal view per write, no errors: nothing lost, nothing duplicated.
  ASSERT_EQ(w1.state(), CorrectableState::kFinal);
  ASSERT_EQ(w2.state(), CorrectableState::kFinal);
  EXPECT_EQ(stack.client()->stats().errors, 0);

  // The departed coordinator never coordinated the re-routed batch...
  KvReplica* removed_replica = nullptr;
  for (const auto& replica : stack.cluster->replicas()) {
    if (replica->id() == doomed) {
      removed_replica = replica.get();
    }
  }
  ASSERT_NE(removed_replica, nullptr);
  EXPECT_EQ(removed_replica->counters().writes_coordinated, 0);
  EXPECT_EQ(removed_replica->counters().multi_writes_coordinated, 0);
  // ...yet converges to the written values through ordinary replication.
  world.loop().RunFor(Seconds(1));
  for (size_t i = 0; i < keys.size(); ++i) {
    for (const auto& replica : stack.cluster->replicas()) {
      const auto stored = replica->LocalGet(keys[i]);
      ASSERT_TRUE(stored.has_value()) << keys[i];
      EXPECT_EQ(stored->value, i == 0 ? "v1" : "v2");
    }
  }
}

TEST(RebalanceFailures, BackpressureShedFailsExactlyTheQueuedWaiters) {
  // A shard at its outstanding limit sheds the next flushed cohort with a retryable
  // OVERLOADED error delivered to exactly that cohort's waiters; the shard's in-flight
  // work, the other shards, and a later retry are all untouched.
  SimWorld world(13, 0.0);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  BatchConfig batch;
  batch.batch_window = Millis(10);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, binding, Region::kIreland,
                                         {Region::kFrankfurt, Region::kIreland,
                                          Region::kVirginia},
                                         batch);
  stack.SetShardQueueLimit(1);

  // Probe keys: three on one shard (one in-flight + two shed), one on another.
  std::vector<std::string> hot;
  std::string cold;
  const size_t hot_shard = stack.router()->ShardIndexFor("bp0");
  for (int i = 0; (hot.size() < 3 || cold.empty()) && i < 600; ++i) {
    const std::string key = "bp" + std::to_string(i);
    if (stack.router()->ShardIndexFor(key) == hot_shard) {
      if (hot.size() < 3) {
        hot.push_back(key);
      }
    } else if (cold.empty()) {
      cold = key;
    }
  }
  ASSERT_EQ(hot.size(), 3u);
  ASSERT_FALSE(cold.empty());
  for (const auto& key : hot) {
    stack.cluster->Preload(key, "hot");
  }
  stack.cluster->Preload(cold, "cold");

  // t=0: one read opens a cohort, flushes at 10 ms, and occupies the shard's only slot
  // for the duration of its quorum round-trip (tens of ms of WAN RTT).
  auto in_flight = stack.client()->InvokeStrong(Operation::Get(hot[0]));
  // t=12 ms: two reads of the hot shard queue into a fresh cohort (the first already
  // flushed); its own flush at 22 ms hits the full queue and is shed. The cold-shard
  // read at the same instant must be admitted.
  Correctable<OpResult> shed_1 = Correctable<OpResult>::Failed(Status::Internal("unset"));
  Correctable<OpResult> shed_2 = Correctable<OpResult>::Failed(Status::Internal("unset"));
  Correctable<OpResult> healthy = Correctable<OpResult>::Failed(Status::Internal("unset"));
  world.loop().Schedule(Millis(12), [&]() {
    shed_1 = stack.client()->InvokeStrong(Operation::Get(hot[1]));
    shed_2 = stack.client()->InvokeStrong(Operation::Get(hot[2]));
    healthy = stack.client()->InvokeStrong(Operation::Get(cold));
  });
  world.loop().Run();

  ASSERT_EQ(in_flight.state(), CorrectableState::kFinal);
  EXPECT_EQ(in_flight.Final().value().value, "hot");
  ASSERT_EQ(shed_1.state(), CorrectableState::kError);
  ASSERT_EQ(shed_2.state(), CorrectableState::kError);
  EXPECT_EQ(shed_1.error().code(), StatusCode::kOverloaded);
  EXPECT_EQ(shed_2.error().code(), StatusCode::kOverloaded);
  EXPECT_TRUE(IsRetryable(shed_1.error()));
  ASSERT_EQ(healthy.state(), CorrectableState::kFinal);
  EXPECT_EQ(healthy.Final().value().value, "cold");

  const ClientStats& stats = stack.client()->stats();
  EXPECT_EQ(stats.overload_sheds, 2);  // exactly the queued waiters of the shed cohort
  // One shed flush covered both.
  EXPECT_EQ(stack.router()->LoadSnapshot().shards[hot_shard].sheds, 1);

  // The queue drained with the in-flight read; a retry is admitted and completes.
  auto retried = stack.client()->InvokeStrong(Operation::Get(hot[1]));
  world.loop().Run();
  ASSERT_EQ(retried.state(), CorrectableState::kFinal);
  EXPECT_EQ(retried.Final().value().value, "hot");
}

TEST(SpeculationFailures, MisspeculationAbortRunsOnDivergence) {
  SimWorld world(8, 0.0);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  auto stack = MakeCassandraStack(world, KvConfig{}, binding);
  stack.cluster->Preload("k", "stale");
  stack.cluster->ReplicaIn(Region::kIreland)->LocalPut("k", "fresh", Version{999, 1});

  int aborts = 0;
  auto result = stack.client->Invoke(Operation::Get("k"))
                    .Speculate([](const OpResult& r) { return "work(" + r.value + ")"; },
                               [&](const OpResult& bad) {
                                 aborts++;
                                 EXPECT_EQ(bad.value, "stale");
                               });
  world.loop().Run();
  EXPECT_EQ(aborts, 1);
  ASSERT_TRUE(result.Final().ok());
  EXPECT_EQ(result.Final().value(), "work(fresh)");  // re-executed on the correct input
}

}  // namespace
}  // namespace icg
