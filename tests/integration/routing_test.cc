// End-to-end sharded routing: a BindingRouter over per-coordinator Cassandra bindings,
// driven through the unchanged InvocationPipeline. Proves the ISSUE-2 acceptance
// properties: per-key view monotonicity survives multi-shard traffic, coalescing stats
// are preserved (and shard-scoped), cross-shard multigets merge correctly, and all
// coordinators actually share the load.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/harness/deployment.h"

namespace icg {
namespace {

// Keys k0..k49 hit every shard of a 3-coordinator ring in practice; find one per shard.
std::map<size_t, std::string> OneKeyPerShard(const BindingRouter& router, int max_probe = 200) {
  std::map<size_t, std::string> keys;
  for (int i = 0; i < max_probe && keys.size() < router.num_shards(); ++i) {
    const std::string key = "k" + std::to_string(i);
    keys.emplace(router.ShardIndexFor(key), key);
  }
  return keys;
}

TEST(ShardedRouting, PerKeyMonotonicityAcrossShards) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  ASSERT_EQ(stack.router()->num_shards(), 3u);

  constexpr int kKeys = 30;
  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload("k" + std::to_string(i), "v" + std::to_string(i));
  }

  // Every invocation must deliver the full weak-then-strong sequence, regardless of
  // which coordinator its key routes to.
  std::vector<std::vector<ConsistencyLevel>> levels(kKeys);
  std::vector<Correctable<OpResult>> handles;
  std::set<size_t> shards_used;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    shards_used.insert(stack.router()->ShardIndexFor(key));
    handles.push_back(stack.client()->Invoke(Operation::Get(key)));
    handles.back().SetCallbacks(
        [&levels, i](const View<OpResult>& v) { levels[i].push_back(v.level); },
        [&levels, i](const View<OpResult>& v) { levels[i].push_back(v.level); });
  }
  world.loop().Run();

  EXPECT_EQ(shards_used.size(), 3u) << "uniform keys should span all shards";
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(handles[i].state(), CorrectableState::kFinal) << "key k" << i;
    EXPECT_EQ(handles[i].Final().value().value, "v" + std::to_string(i));
    ASSERT_EQ(levels[i].size(), 2u);
    EXPECT_EQ(levels[i][0], ConsistencyLevel::kWeak);
    EXPECT_EQ(levels[i][1], ConsistencyLevel::kStrong);
  }
  const ClientStats& stats = stack.client()->stats();
  EXPECT_EQ(stats.invocations, kKeys);
  EXPECT_EQ(stats.views_delivered, 2 * kKeys);
  EXPECT_EQ(stats.stale_views_dropped, 0);
  EXPECT_EQ(stats.errors, 0);
}

TEST(ShardedRouting, AllCoordinatorsShareTheLoad) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  for (int i = 0; i < 60; ++i) {
    const std::string key = "k" + std::to_string(i);
    stack.cluster->Preload(key, "v");
    stack.client()->Invoke(Operation::Get(key));
  }
  world.loop().Run();
  for (const auto& replica : stack.cluster->replicas()) {
    EXPECT_GT(replica->counters().reads_coordinated, 0)
        << "replica " << replica->id() << " coordinated nothing";
  }
}

TEST(ShardedRouting, SameTickSameKeyReadsStillCoalesce) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  stack.cluster->Preload("k1", "v1");

  auto a = stack.client()->Invoke(Operation::Get("k1"));
  auto b = stack.client()->Invoke(Operation::Get("k1"));
  world.loop().Run();

  EXPECT_EQ(a.Final().value().value, "v1");
  EXPECT_EQ(b.Final().value().value, "v1");
  EXPECT_EQ(a.views_delivered(), 2);
  EXPECT_EQ(b.views_delivered(), 2);
  const ClientStats& stats = stack.client()->stats();
  EXPECT_EQ(stats.coalesced_reads, 1);
  EXPECT_EQ(stats.batched_invocations, 1);
}

TEST(ShardedRouting, CrossShardKeysNeverShareABatch) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  const auto per_shard = OneKeyPerShard(*stack.router());
  ASSERT_EQ(per_shard.size(), 3u);

  for (const auto& [shard, key] : per_shard) {
    stack.cluster->Preload(key, "v@" + std::to_string(shard));
  }
  std::vector<Correctable<OpResult>> handles;
  for (const auto& [shard, key] : per_shard) {
    handles.push_back(stack.client()->Invoke(Operation::Get(key)));
  }
  world.loop().Run();

  for (auto& handle : handles) {
    ASSERT_EQ(handle.state(), CorrectableState::kFinal);
  }
  // Distinct keys on distinct shards: three separate round-trips, zero joins.
  EXPECT_EQ(stack.client()->stats().coalesced_reads, 0);
  EXPECT_EQ(stack.client()->stats().batched_invocations, 0);
}

TEST(ShardedRouting, CrossShardMultigetMergesThroughRealStores) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  const auto per_shard = OneKeyPerShard(*stack.router());
  ASSERT_EQ(per_shard.size(), 3u);

  std::vector<std::string> keys;
  std::string expected;
  for (const auto& [shard, key] : per_shard) {
    stack.cluster->Preload(key, "val-" + key);
    if (!keys.empty()) {
      expected += kMultiValueSeparator;
    }
    keys.push_back(key);
    expected += "val-" + key;
  }

  std::vector<ConsistencyLevel> seen;
  auto c = stack.client()->Invoke(Operation::MultiGet(keys));
  c.SetCallbacks([&seen](const View<OpResult>& v) { seen.push_back(v.level); },
                 [&seen](const View<OpResult>& v) { seen.push_back(v.level); });
  world.loop().Run();

  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.Final().value().value, expected);
  EXPECT_TRUE(c.Final().value().found);
  EXPECT_EQ(c.Final().value().seqno, 3);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], ConsistencyLevel::kWeak);
  EXPECT_EQ(seen[1], ConsistencyLevel::kStrong);
}

TEST(ShardedRouting, CrossShardMultigetKeepsEachShardsPerKeyDetail) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  // Two keys per shard, so every shard answers a multi-key slice.
  std::map<size_t, std::vector<std::string>> by_shard;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    std::vector<std::string>& keys = by_shard[stack.router()->ShardIndexFor(key)];
    if (keys.size() < 2) {
      keys.push_back(key);
    }
  }
  ASSERT_EQ(by_shard.size(), 3u);
  for (const auto& [shard, keys] : by_shard) {
    ASSERT_EQ(keys.size(), 2u) << "shard " << shard;
  }
  const std::string empty = by_shard[0][0];    // found, with an empty value
  const std::string written = by_shard[0][1];  // written at run time: a newer version
  const std::string missing = by_shard[1][0];
  const std::string preloaded = by_shard[1][1];
  const std::string rewritten = by_shard[2][0];  // written twice
  const std::string later = by_shard[2][1];      // written after both of those
  stack.cluster->Preload(empty, "");
  stack.cluster->Preload(preloaded, "old");
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {written, "w1"}, {rewritten, "r1"}, {rewritten, "r2"}, {later, "l1"}}) {
    stack.client()->InvokeStrong(Operation::Put(key, value));
    world.loop().Run();
  }

  // Interleave the shards in the request so the merge must restore request order.
  const std::vector<std::string> keys = {later, empty, missing, rewritten, preloaded, written};
  auto multi = stack.client()->Invoke(Operation::MultiGet(keys));
  world.loop().Run();
  std::vector<Correctable<OpResult>> lone;
  for (const std::string& key : keys) {
    lone.push_back(stack.client()->Invoke(Operation::Get(key)));
  }
  world.loop().Run();

  ASSERT_EQ(multi.state(), CorrectableState::kFinal);
  const OpResult merged = multi.Final().value();
  ASSERT_EQ(merged.key_found.size(), keys.size());
  ASSERT_EQ(merged.key_versions.size(), keys.size());
  const SmallVec<OpResult, 1> entries = UnpackRead(WireShape::kBatch, keys.size(), merged);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(lone[i].state(), CorrectableState::kFinal) << keys[i];
    const OpResult own = lone[i].Final().value();
    EXPECT_EQ(static_cast<bool>(merged.key_found[i]), own.found) << keys[i];
    EXPECT_EQ(merged.key_versions[i], own.version) << keys[i];
    EXPECT_EQ(entries[i], own) << keys[i];
  }
  EXPECT_FALSE(merged.found);  // one key missed
  EXPECT_EQ(merged.seqno, 5);
  EXPECT_TRUE(entries[1].found);
  EXPECT_EQ(entries[1].value, "");
  EXPECT_FALSE(entries[2].found);
  EXPECT_EQ(entries[3].value, "r2");
  // Four distinct versions: the preload stamp and three run-time writes.
  const std::set<std::pair<SimTime, NodeId>> versions = {
      {entries[0].version.timestamp, entries[0].version.writer},
      {entries[3].version.timestamp, entries[3].version.writer},
      {entries[4].version.timestamp, entries[4].version.writer},
      {entries[5].version.timestamp, entries[5].version.writer}};
  EXPECT_EQ(versions.size(), 4u);
}

TEST(ShardedRouting, WritesVisibleThroughAnyShardCount) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  for (int i = 0; i < 9; ++i) {
    stack.client()->InvokeStrong(Operation::Put("w" + std::to_string(i), "x" + std::to_string(i)));
  }
  world.loop().Run();
  std::vector<Correctable<OpResult>> reads;
  for (int i = 0; i < 9; ++i) {
    reads.push_back(stack.client()->InvokeStrong(Operation::Get("w" + std::to_string(i))));
  }
  world.loop().Run();
  for (int i = 0; i < 9; ++i) {
    ASSERT_EQ(reads[i].state(), CorrectableState::kFinal) << i;
    EXPECT_EQ(reads[i].Final().value().value, "x" + std::to_string(i));
  }
}

TEST(ShardedRouting, SingleCoordinatorDegeneratesToFlatStack) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 1, KvConfig{}, CassandraBindingConfig{});
  EXPECT_EQ(stack.router()->num_shards(), 1u);
  stack.cluster->Preload("k", "v");
  auto c = stack.client()->Invoke(Operation::Get("k"));
  world.loop().Run();
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.Final().value().value, "v");
  EXPECT_EQ(c.views_delivered(), 2);
}

// --- Live membership changes under load ------------------------------------------------

TEST(ShardedRouting, CoordinatorJoinsUnderLoadWithoutBreakingInvocations) {
  SimWorld world(8, 0.0);
  auto stack = MakeShardedCassandraStack(world, 2, KvConfig{}, CassandraBindingConfig{});
  ASSERT_EQ(stack.router()->num_shards(), 2u);
  constexpr int kKeys = 40;
  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload("k" + std::to_string(i), "v" + std::to_string(i));
  }

  // A steady stream of ICG reads across one second of virtual time...
  std::vector<Correctable<OpResult>> handles;
  handles.reserve(200);
  auto issue = [&](int i) {
    handles.push_back(stack.client()->Invoke(Operation::Get("k" + std::to_string(i % kKeys))));
  };
  for (int i = 0; i < 200; ++i) {
    world.loop().Schedule(Millis(5) * i, [&issue, i]() { issue(i); });
  }
  // ...with the third replica promoted into the ring mid-stream.
  const NodeId joiner = stack.cluster->replicas().back()->id();
  world.loop().Schedule(Millis(500), [&stack, joiner]() {
    const auto diff = stack.AddCoordinator(joiner);
    EXPECT_EQ(diff.added_nodes, std::vector<NodeId>{joiner});
    EXPECT_GT(diff.MovedFraction(), 0.05);  // the newcomer captured a real share
  });
  world.loop().Run();

  EXPECT_EQ(stack.router()->num_shards(), 3u);
  EXPECT_EQ(stack.ring_epoch(), 1u);
  // The join is journaled once, at its virtual time, with the epoch it installed.
  ASSERT_EQ(world.journal().entries().size(), 1u);
  const JournalEntry& join = world.journal().entries().front();
  EXPECT_EQ(join.at, Millis(500));
  EXPECT_EQ(join.kind, EventKind::kRing);
  EXPECT_EQ(join.node, joiner);
  EXPECT_EQ(join.epoch, 1u);
  EXPECT_EQ(join.detail, +1);
  for (auto& handle : handles) {
    ASSERT_EQ(handle.state(), CorrectableState::kFinal);
    EXPECT_EQ(handle.views_delivered(), 2);  // weak-then-strong survived the join
  }
  EXPECT_EQ(stack.client()->stats().errors, 0);
  EXPECT_EQ(stack.client()->stats().stale_views_dropped, 0);
  // The joiner actually coordinates traffic now.
  KvReplica* promoted = stack.cluster->replicas().back().get();
  EXPECT_GT(promoted->counters().reads_coordinated, 0)
      << "promoted coordinator served nothing after the join";
}

TEST(ShardedRouting, CoordinatorLeavesUnderLoadAndInFlightWorkDrains) {
  SimWorld world(9, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  constexpr int kKeys = 40;
  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload("k" + std::to_string(i), "v" + std::to_string(i));
  }

  std::vector<Correctable<OpResult>> handles;
  handles.reserve(200);
  for (int i = 0; i < 200; ++i) {
    world.loop().Schedule(Millis(5) * i, [&handles, &stack, i]() {
      handles.push_back(
          stack.client()->Invoke(Operation::Get("k" + std::to_string(i % kKeys))));
    });
  }
  // Demote a serving coordinator mid-stream: invocations already in flight against it
  // must drain to completion through the retired connection, while new traffic routes
  // through the survivors.
  const NodeId leaver = stack.coordinator_ids().front();
  world.loop().Schedule(Millis(500), [&stack, leaver]() {
    const auto diff = stack.RemoveCoordinator(leaver);
    EXPECT_EQ(diff.removed_nodes, std::vector<NodeId>{leaver});
  });
  world.loop().Run();

  EXPECT_EQ(stack.router()->num_shards(), 2u);
  ASSERT_EQ(world.journal().entries().size(), 1u);
  const JournalEntry& leave = world.journal().entries().front();
  EXPECT_EQ(leave.kind, EventKind::kRing);
  EXPECT_EQ(leave.node, leaver);
  EXPECT_EQ(leave.epoch, stack.ring_epoch());
  EXPECT_EQ(leave.detail, -1);
  for (auto& handle : handles) {
    ASSERT_EQ(handle.state(), CorrectableState::kFinal);
    EXPECT_EQ(handle.views_delivered(), 2);
  }
  EXPECT_EQ(stack.client()->stats().errors, 0);
}

TEST(ShardedRouting, SecondRoutedClientAgreesOnOwnership) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  auto& other = AddShardedCassandraClient(world, stack, CassandraBindingConfig{},
                                         Region::kVirginia);
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(stack.router()->ShardIndexFor(key), other.router->ShardIndexFor(key)) << key;
  }
  // A write through one client is read back (strong) through the other.
  stack.client()->InvokeStrong(Operation::Put("shared", "payload"));
  world.loop().Run();
  auto c = other.client->InvokeStrong(Operation::Get("shared"));
  world.loop().Run();
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.Final().value().value, "payload");
}

TEST(ShardedRouting, RecoveryReadmitsOnlyACoordinatorTheRingLost) {
  SimWorld world(11, 0.0);
  auto stack = MakeShardedCassandraStack(
      world, 3, KvConfig{}, CassandraBindingConfig{}, Region::kIreland,
      {Region::kFrankfurt, Region::kIreland, Region::kVirginia, Region::kCalifornia});
  const std::vector<NodeId> ring = stack.coordinator_ids();
  const NodeId plain = stack.cluster->replicas().back()->id();
  const Journal& journal = world.journal();

  // A plain replica crashes and recovers: it never joins the ring.
  stack.CrashCoordinator(plain);
  stack.RecoverCoordinator(plain);
  EXPECT_EQ(stack.coordinator_ids(), ring);
  ASSERT_EQ(journal.entries().size(), 2u);
  EXPECT_EQ(journal.entries()[0].kind, EventKind::kCrash);
  EXPECT_EQ(journal.entries()[0].detail, 0);  // not a coordinator
  EXPECT_EQ(journal.entries()[1].kind, EventKind::kRejoined);
  EXPECT_EQ(journal.entries()[1].detail, 0);  // not re-admitted

  // A coordinator recovered before anything routed around it is still in the ring and
  // must not be inserted twice.
  stack.CrashCoordinator(ring.front());
  stack.RecoverCoordinator(ring.front());
  EXPECT_EQ(stack.coordinator_ids(), ring);
  EXPECT_EQ(stack.ring_epoch(), 0u);
  ASSERT_EQ(journal.entries().size(), 4u);
  EXPECT_EQ(journal.entries()[2].detail, 1);  // crashed as a coordinator
  EXPECT_EQ(journal.entries()[3].detail, 0);  // still in the ring: not re-admitted

  // A coordinator the ring lost while it was down re-enters at a fresh epoch.
  stack.CrashCoordinator(ring.front());
  stack.RemoveCoordinator(ring.front());  // what the failure detector does
  stack.RecoverCoordinator(ring.front());
  EXPECT_EQ(stack.coordinator_ids().size(), ring.size());
  EXPECT_EQ(stack.ring_epoch(), 2u);
  ASSERT_EQ(journal.entries().size(), 8u);
  EXPECT_EQ(journal.entries()[5].kind, EventKind::kRing);  // the removal
  EXPECT_EQ(journal.entries()[6].kind, EventKind::kRing);  // the re-admission
  EXPECT_EQ(journal.entries()[6].detail, +1);
  EXPECT_EQ(journal.entries()[7].kind, EventKind::kRejoined);
  EXPECT_EQ(journal.entries()[7].epoch, 2u);
  EXPECT_EQ(journal.entries()[7].detail, 1);
}

}  // namespace
}  // namespace icg
