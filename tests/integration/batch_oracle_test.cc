// Randomized consistency oracle for the cross-tick batching engine: N clients issue
// random reads and writes at random times through real storage stacks, across batch
// windows 0 (legacy same-tick coalescing), small, and large. Whatever the batching
// layer merges, splits, delays, or fans back out, every Correctable must still obey the
// paper's contract (src/harness/icg_oracle.h) — weakest-first monotone view delivery,
// exactly one terminal view (no lost or duplicated finals), finals at the strongest
// requested level, no thin-air values — and per-key write program order must survive
// all the way into replica state.
//
// The RNG seed comes from ICG_ORACLE_SEED (default 12345); CI sweeps several seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/bindings/blockchain_binding.h"
#include "src/common/random.h"
#include "src/harness/deployment.h"
#include "src/harness/icg_oracle.h"

namespace icg {
namespace {

// 400 random operations from the three clients over three seconds, on 39 keys (a
// multiple of the client count, so the single-writer partition is exact).
RandomKvLoadSpec OracleLoadSpec() {
  RandomKvLoadSpec spec;
  spec.phases = {{0, Seconds(3), 400}};
  return spec;
}

// The post-run oracles shared by the sharded trials: every invocation closed, per-key
// write program order through acknowledgements (a batched flush acks its members under
// one version, so equal is fine, regression is not) and through replica state, and no
// acked write lost.
void ExpectCleanHistory(ContractChecker& checker, const KvCluster& cluster,
                        const std::string& context) {
  checker.Finish();
  checker.CheckProgramOrder(cluster);
  EXPECT_EQ(checker.violations().total(), 0) << context << ": " << checker.Report();
}

// One randomized trial over the sharded Cassandra deployment (3 routed clients, one per
// region) with static membership.
void RunShardedOracleTrial(SimDuration window, uint64_t seed) {
  SCOPED_TRACE("window_us=" + std::to_string(window) + " seed=" + std::to_string(seed));
  SimWorld world(seed);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  BatchConfig batch;
  batch.batch_window = window;

  auto stack = MakeShardedCassandraStack(world, /*n_coordinators=*/3, KvConfig{}, binding,
                                         Region::kIreland,
                                         {Region::kFrankfurt, Region::kIreland,
                                          Region::kVirginia},
                                         batch);
  auto& frk = AddShardedCassandraClient(world, stack, binding, Region::kFrankfurt, batch);
  auto& vrg = AddShardedCassandraClient(world, stack, binding, Region::kVirginia, batch);
  const std::vector<CorrectableClient*> clients = {stack.client(), frk.client.get(),
                                                   vrg.client.get()};

  ContractChecker checker(SanctionedError::kNone, &world.loop());
  RandomKvLoad load(clients, &checker, OracleLoadSpec());
  load.Preload(*stack.cluster);
  Rng rng(seed * 31 + static_cast<uint64_t>(window));
  load.Schedule(rng);
  world.loop().Run();

  ExpectCleanHistory(checker, *stack.cluster, "sharded");

  // Counter sanity: window 0 must never open a cross-tick batch; a wide window under
  // this op rate must.
  int64_t cross_tick = 0;
  for (const CorrectableClient* client : clients) {
    cross_tick += client->stats().cross_tick_batches;
  }
  if (window == 0) {
    EXPECT_EQ(cross_tick, 0);
  } else if (window >= Millis(20)) {
    EXPECT_GT(cross_tick, 0);
  }
}

TEST(BatchOracle, ShardedCassandraAcrossWindows) {
  const uint64_t seed = OracleSeed();
  for (const SimDuration window : {Millis(0), Millis(2), Millis(25)}) {
    RunShardedOracleTrial(window, seed);
  }
}

// --- Membership churn: the same oracle while coordinators join and leave mid-run -------
//
// A 5-replica cluster starts with 3 coordinators; scheduled churn events promote spare
// replicas into the ring and demote serving coordinators out of it while the 3-client
// random load is in flight. Whatever the rebalancer re-routes, retires, or re-plans,
// every Correctable must still satisfy the full contract and per-key write program
// order, and no invocation may be lost to a coordinator that left with work pending.
void RunChurnOracleTrial(SimDuration window, uint64_t seed) {
  SCOPED_TRACE("churn window_us=" + std::to_string(window) + " seed=" + std::to_string(seed));
  SimWorld world(seed);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  BatchConfig batch;
  batch.batch_window = window;

  auto stack = MakeShardedCassandraStack(world, /*n_coordinators=*/3, KvConfig{}, binding,
                                         Region::kIreland,
                                         {Region::kFrankfurt, Region::kIreland,
                                          Region::kVirginia, Region::kCalifornia,
                                          Region::kOregon},
                                         batch);
  auto& frk = AddShardedCassandraClient(world, stack, binding, Region::kFrankfurt, batch);
  auto& vrg = AddShardedCassandraClient(world, stack, binding, Region::kVirginia, batch);

  ContractChecker checker(SanctionedError::kNone, &world.loop());
  RandomKvLoad load({stack.client(), frk.client.get(), vrg.client.get()}, &checker,
                    OracleLoadSpec());
  load.Preload(*stack.cluster);
  Rng rng(seed * 131 + static_cast<uint64_t>(window));
  load.Schedule(rng);

  // The churn schedule: 8 membership events spread through the load window, decided at
  // fire time from a forked deterministic stream. Adds promote a random spare replica;
  // removes demote a random serving coordinator (always keeping >= 2 in the ring). The
  // run must exercise BOTH directions to count.
  auto churn_rng = std::make_shared<Rng>(rng.Fork());
  auto adds = std::make_shared<int>(0);
  auto removes = std::make_shared<int>(0);
  auto epochs_seen = std::make_shared<std::vector<uint64_t>>();
  ShardedCassandraStack* stack_ptr = &stack;
  for (int event = 0; event < 8; ++event) {
    const SimDuration at =
        Millis(300) + static_cast<SimDuration>(rng.NextBounded(Millis(2400)));
    world.loop().Schedule(at, [stack_ptr, churn_rng, adds, removes, epochs_seen]() {
      std::vector<NodeId> spares;
      for (const auto& replica : stack_ptr->cluster->replicas()) {
        const auto& ids = stack_ptr->coordinator_ids();
        if (std::find(ids.begin(), ids.end(), replica->id()) == ids.end()) {
          spares.push_back(replica->id());
        }
      }
      const bool can_remove = stack_ptr->coordinator_ids().size() > 2;
      const bool do_add = !spares.empty() && (!can_remove || churn_rng->NextBool(0.5));
      if (do_add) {
        const NodeId joiner = spares[churn_rng->NextBounded(spares.size())];
        const auto diff = stack_ptr->AddCoordinator(joiner);
        EXPECT_GT(diff.to_epoch, diff.from_epoch);
        (*adds)++;
      } else if (can_remove) {
        const auto& ids = stack_ptr->coordinator_ids();
        const NodeId leaver = ids[churn_rng->NextBounded(ids.size())];
        const auto diff = stack_ptr->RemoveCoordinator(leaver);
        EXPECT_GT(diff.to_epoch, diff.from_epoch);
        (*removes)++;
      }
      epochs_seen->push_back(stack_ptr->ring_epoch());
    });
  }

  world.loop().Run();

  EXPECT_GE(*adds, 1) << "churn trial never promoted a coordinator";
  EXPECT_GE(*removes, 1) << "churn trial never demoted a coordinator";
  for (size_t i = 1; i < epochs_seen->size(); ++i) {
    EXPECT_GT((*epochs_seen)[i], (*epochs_seen)[i - 1]) << "ring epochs must increase";
  }

  // The full static-membership contract must hold verbatim under churn (churn may
  // re-route a key's writes to a new coordinator mid-stream): a rebalance must never
  // surface a torn batch slice or a value from the wrong key.
  ExpectCleanHistory(checker, *stack.cluster, "churn");
}

TEST(BatchOracle, MembershipChurnAcrossWindows) {
  const uint64_t seed = OracleSeed();
  for (const SimDuration window : {Millis(0), Millis(5)}) {
    RunChurnOracleTrial(window, seed);
  }
}

// --- Kill -9 mid-cohort: the crash-failover oracle --------------------------------------
//
// The same randomized load, but a coordinator is kill -9'd mid-run (mid-batch-window and
// mid-multiput-cohort at whatever instants the seed lands on), the heartbeat detector
// fails over around the corpse, and the replica later recovers from snapshot + WAL
// replay and rejoins at a fresh ring epoch. The contract under crashes:
//
//   * every invocation still closes exactly once — errors (timeout / retryable
//     OVERLOADED sheds during the failover window) are legal, duplicated or lost
//     terminals are not, and views never regress or trail a terminal;
//   * no acked write is lost: every replica converges to one value whose version is at
//     least the last acked version of its key, and equal versions carry equal values
//     (replay under LWW must not duplicate an acked write under a fresh stamp);
//   * reads only ever observe written values — a torn WAL tail must never surface;
//   * ring epochs advance by at least two (failover + re-admission) and the failover
//     log records detection and rejoin.
//
// Two runs with the same seed must produce a bit-identical fingerprint — crash,
// detection, recovery, and replay are all pure functions of the seed — and the next
// seed must produce a different one. ICG_WAL_FAULTS=1 additionally enables slow-fsync +
// torn-tail fault injection (the CI fault sweep).

bool WalFaultsEnabled() {
  const char* env = std::getenv("ICG_WAL_FAULTS");
  return env != nullptr && *env == '1';
}

std::string RunCrashOracleTrial(SimDuration window, uint64_t seed) {
  SCOPED_TRACE("crash window_us=" + std::to_string(window) +
               " seed=" + std::to_string(seed));

  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  BatchConfig batch;
  batch.batch_window = window;
  KvConfig kv;
  kv.wal_fsync_service = Micros(120);  // acked => fsynced, with a real (simulated) cost
  kv.snapshot_every = 64;              // snapshots + WAL truncation exercise mid-run
  if (WalFaultsEnabled()) {
    kv.wal_fsync_service = Micros(150);
    kv.wal_torn_tail = true;
  }

  SimWorld world(seed * 13);
  auto stack = MakeShardedCassandraStack(world, /*n_coordinators=*/3, kv, binding,
                                         Region::kIreland,
                                         {Region::kFrankfurt, Region::kIreland,
                                          Region::kVirginia, Region::kCalifornia,
                                          Region::kOregon},
                                         batch);
  auto& frk = AddShardedCassandraClient(world, stack, binding, Region::kFrankfurt, batch);
  auto& vrg = AddShardedCassandraClient(world, stack, binding, Region::kVirginia, batch);
  const std::vector<CorrectableClient*> clients = {stack.client(), frk.client.get(),
                                                   vrg.client.get()};
  for (CorrectableClient* client : clients) {
    // A request parked on a corpse has no coordinator-side timeout to save it: the
    // client-side invocation timeout is what closes those terminals.
    client->SetTimeout(Seconds(3));
  }
  stack.SetShardQueueLimit(32);  // failover-window backpressure: shed, don't queue

  ContractChecker checker(SanctionedError::kAny, &world.loop());
  RandomKvLoad load(clients, &checker, OracleLoadSpec());
  load.Preload(*stack.cluster);
  stack.EnableFailureDetection();  // 50 ms heartbeat, 3 missed probes => failover
  Rng rng(seed * 173 + static_cast<uint64_t>(window));
  load.Schedule(rng);

  const uint64_t epoch_before = stack.ring_epoch();
  const NodeId victim =
      stack.coordinator_ids()[static_cast<size_t>(seed % stack.coordinator_ids().size())];

  // kill -9 at 1 s (mid-load, mid-window, mid-whatever-cohort the seed lined up),
  // recover at 2 s. Both mutations happen between RunUntil calls, like an external
  // fault injector.
  EventLoop& loop = world.loop();
  loop.RunUntil(Seconds(1));
  stack.CrashCoordinator(victim);
  loop.RunUntil(Seconds(2));
  stack.RecoverCoordinator(victim);
  loop.RunUntil(Seconds(6));  // load + timeouts + bootstrap drain
  stack.DisableFailureDetection();
  loop.Run();

  // Failover actually happened and was journaled: one crash of a coordinator, detected
  // after the crash and before recovery, rejoined at recovery, ring advanced by at
  // least two epochs (route-around + re-admission).
  const Journal& journal = world.journal();
  EXPECT_EQ(journal.Count(EventKind::kCrash), 1);
  EXPECT_GE(journal.Count(EventKind::kDetected), 1);
  EXPECT_EQ(journal.Count(EventKind::kRejoined), 1);
  SimTime crashed_at = -1;
  SimTime detected_at = -1;
  SimTime rejoined_at = -1;
  for (const JournalEntry& entry : journal.entries()) {
    if (entry.node != victim) continue;
    if (entry.kind == EventKind::kCrash) {
      crashed_at = entry.at;
      EXPECT_EQ(entry.detail, 1) << "the victim was a coordinator";
    }
    if (entry.kind == EventKind::kDetected) detected_at = entry.at;
    if (entry.kind == EventKind::kRejoined) {
      rejoined_at = entry.at;
      EXPECT_EQ(entry.detail, 1) << "the victim re-entered the ring";
    }
  }
  EXPECT_EQ(crashed_at, Seconds(1));
  EXPECT_GT(detected_at, crashed_at);
  EXPECT_LE(detected_at, Seconds(2));
  EXPECT_GE(rejoined_at, Seconds(2));
  EXPECT_GE(stack.ring_epoch(), epoch_before + 2);
  EXPECT_EQ(stack.coordinator_ids().size(), 3u);  // the victim is back

  // The recovered replica rebuilt from its own durable state and caught up.
  KvReplica* recovered = nullptr;
  for (const auto& replica : stack.cluster->replicas()) {
    if (replica->id() == victim) {
      recovered = replica.get();
    }
  }
  EXPECT_NE(recovered, nullptr);
  if (recovered == nullptr) {
    return "missing-recovered-replica";
  }
  EXPECT_FALSE(recovered->crashed());
  EXPECT_TRUE(recovered->last_recovery().bootstrap_complete);

  // Errors are legal in the failover window; everything else in the contract is not.
  ExpectCleanHistory(checker, *stack.cluster, "crash");

  return std::to_string(checker.fingerprint()) + "|journal:" + journal.Fingerprint() +
         "|replayed=" + std::to_string(recovered->last_recovery().wal_records_replayed) +
         "|merged=" + std::to_string(recovered->last_recovery().bootstrap_keys_merged);
}

TEST(BatchOracle, CrashFailoverRecovery) {
  const uint64_t seed = OracleSeed();
  for (const SimDuration window : {Millis(0), Millis(5)}) {
    const std::string first = RunCrashOracleTrial(window, seed);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(RunCrashOracleTrial(window, seed), first);
    EXPECT_NE(RunCrashOracleTrial(window, seed + 1), first);
  }
}

// The same oracle over the cached-causal stack: a two-level binding whose weakest level
// is the client cache, so batched flushes interleave with synchronous cache views and
// write-through refreshes.
void RunCausalOracleTrial(SimDuration window, uint64_t seed) {
  SCOPED_TRACE("causal window_us=" + std::to_string(window));
  SimWorld world(seed + 7);
  BatchConfig batch;
  batch.batch_window = window;
  auto stack = MakeCausalStack(world, CausalConfig{}, Region::kIreland, Region::kIreland,
                               {Region::kIreland, Region::kFrankfurt, Region::kVirginia},
                               batch);
  constexpr int kKeys = 39;
  auto key_of = [](int index) { return "okey" + std::to_string(index); };
  ContractChecker checker(SanctionedError::kNone, &world.loop());
  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload(key_of(i), "init");
    checker.Allow(key_of(i), "init");
  }

  Rng rng(seed * 17 + static_cast<uint64_t>(window));
  CorrectableClient* client = stack.client.get();
  int write_counter = 0;
  for (int i = 0; i < 200; ++i) {
    const SimDuration at = static_cast<SimDuration>(rng.NextBounded(Seconds(2)));
    const bool is_write = rng.NextBool(0.3);
    const std::string key = key_of(static_cast<int>(rng.NextBounded(kKeys)));
    if (is_write) {
      const std::string value = "w" + std::to_string(write_counter++);
      world.loop().Schedule(at, [&checker, client, key, value]() {
        auto c = client->InvokeStrong(Operation::Put(key, value));
        checker.Watch(checker.Open(*client, Request::kStrong, key, &value), c);
      });
    } else {
      world.loop().Schedule(at, [&checker, client, key]() {
        auto c = client->Invoke(Operation::Get(key));
        checker.Watch(checker.Open(*client, Request::kIcg, key), c);
      });
    }
  }

  world.loop().Run();
  checker.Finish();
  EXPECT_EQ(checker.violations().total(), 0) << "causal: " << checker.Report();
  // Program order into the coordinating replica (its peers converge causally).
  for (const auto& [key, value] : checker.LastAdmittedWrites()) {
    const auto stored = stack.cluster->ReplicaIn(Region::kIreland)->LocalGet(key);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, value) << key;
  }
  // Write-through coherence survived batching: the cache never holds a value that was
  // never written.
  for (int i = 0; i < kKeys; ++i) {
    const auto cached = stack.cache->Get(key_of(i));
    if (cached.has_value() && cached->found) {
      EXPECT_TRUE(checker.Allowed(key_of(i), cached->value))
          << "cache holds unwritten value for " << key_of(i);
    }
  }
}

TEST(BatchOracle, CachedCausalAcrossWindows) {
  const uint64_t seed = OracleSeed();
  for (const SimDuration window : {Millis(0), Millis(5)}) {
    RunCausalOracleTrial(window, seed);
  }
}

// --- Per-key fidelity of batched fan-out: a batched read must report exactly what a
// lone read would — including found-but-empty values, misses sharing the batch with
// hits, and each key's own version (not the batch-wide freshest).
TEST(BatchOracle, EmptyValuesAndMissesSurviveBatchedFanout) {
  SimWorld world(5, 0.0);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  auto stack = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{},
                                  Region::kIreland, Region::kFrankfurt,
                                  {Region::kFrankfurt, Region::kIreland, Region::kVirginia},
                                  batch);
  stack.cluster->Preload("empty", "");
  stack.cluster->Preload("full", "payload");

  auto empty = stack.client->InvokeStrong(Operation::Get("empty"));
  auto missing = stack.client->InvokeStrong(Operation::Get("missing"));
  auto full = stack.client->InvokeStrong(Operation::Get("full"));
  world.loop().Run();

  ASSERT_EQ(stack.client->stats().cross_tick_batches, 1);  // all three shared one flush
  ASSERT_EQ(empty.state(), CorrectableState::kFinal);
  EXPECT_TRUE(empty.Final().value().found);  // found with an empty value is not a miss
  EXPECT_EQ(empty.Final().value().value, "");
  ASSERT_EQ(missing.state(), CorrectableState::kFinal);
  EXPECT_FALSE(missing.Final().value().found);
  ASSERT_EQ(full.state(), CorrectableState::kFinal);
  EXPECT_TRUE(full.Final().value().found);
  EXPECT_EQ(full.Final().value().value, "payload");
}

TEST(BatchOracle, BatchedCacheRefreshKeepsPerKeyVersions) {
  SimWorld world(6, 0.0);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  auto stack = MakeCausalStack(world, CausalConfig{}, Region::kIreland, Region::kIreland,
                               {Region::kIreland, Region::kFrankfurt, Region::kVirginia},
                               batch);
  // "slow" was written long before "fast": very different true versions.
  stack.cluster->ReplicaIn(Region::kIreland)->LocalPut("slow", "old", Version{2, 1});
  stack.cluster->ReplicaIn(Region::kIreland)->LocalPut("fast", "new", Version{900, 1});

  // One batched read covers both; the refresh must install "slow" under ITS version,
  // not the batch-wide max, or the version-guarded cache would wedge.
  auto a = stack.client->Invoke(Operation::Get("slow"));
  auto b = stack.client->Invoke(Operation::Get("fast"));
  world.loop().Run();
  ASSERT_EQ(a.state(), CorrectableState::kFinal);
  ASSERT_EQ(b.state(), CorrectableState::kFinal);
  ASSERT_TRUE(stack.cache->Get("slow").has_value());
  EXPECT_EQ(stack.cache->Get("slow")->version, (Version{2, 1}));
  // A later legitimate update of "slow" (version 3 > 2, but << 900) must still refresh.
  stack.cache->Refresh("slow", OpResult{.found = true, .value = "updated", .seqno = -1,
                                        .version = Version{3, 1}});
  EXPECT_EQ(stack.cache->Get("slow")->value, "updated");
}

// --- Scope agreement (regression for the "CoalescingScope consulted only for reads"
// audit): for every binding, a key's write must batch under exactly the scope its reads
// batch under — otherwise a routed write could flush through the wrong coordinator.
TEST(BatchOracle, ReadAndWriteScopesAgreeForEveryBinding) {
  SimWorld world(3);
  auto cassandra = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{});
  auto sharded = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  auto news = MakeNewsStack(world, PbConfig{});
  auto causal = MakeCausalStack(world, CausalConfig{});
  auto zookeeper = MakeZooKeeperStack(world, ZabConfig{});
  // Scope is independent of the backing store, so a detached binding instance suffices.
  BlockchainBinding blockchain(nullptr);

  const std::vector<const Binding*> bindings = {
      cassandra.binding.get(), sharded.router(), news.binding.get(),
      causal.binding.get(),    zookeeper.binding.get(), &blockchain};
  for (const Binding* binding : bindings) {
    SCOPED_TRACE(binding->Name());
    for (int i = 0; i < 64; ++i) {
      const std::string key = "scope-key-" + std::to_string(i);
      EXPECT_EQ(binding->CoalescingScope(Operation::Get(key)),
                binding->CoalescingScope(Operation::Put(key, "v")))
          << "read and write scopes disagree for " << key;
    }
  }
}

}  // namespace
}  // namespace icg
