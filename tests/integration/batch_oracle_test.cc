// Randomized consistency oracle for the cross-tick batching engine: N clients issue
// random reads and writes at random times through real storage stacks, across batch
// windows 0 (legacy same-tick coalescing), small, and large. Whatever the batching
// layer merges, splits, delays, or fans back out, every Correctable must still obey the
// paper's contract — weakest-first monotone view delivery, exactly one terminal view
// (no lost or duplicated finals), and per-key write program order surviving all the way
// into replica state.
//
// The RNG seed comes from ICG_ORACLE_SEED (default 12345); CI sweeps several seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/bindings/blockchain_binding.h"
#include "src/common/random.h"
#include "src/harness/deployment.h"

namespace icg {
namespace {

uint64_t OracleSeed() {
  const char* env = std::getenv("ICG_ORACLE_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 12345;
}

// Everything the oracle records about one invocation, filled in by the Correctable's
// callbacks as the run unfolds.
struct Observation {
  bool is_write = false;
  size_t client = 0;
  std::string key;
  std::string written_value;
  ConsistencyLevel weakest = ConsistencyLevel::kStrong;
  ConsistencyLevel strongest = ConsistencyLevel::kStrong;
  std::vector<ConsistencyLevel> delivered;  // every view's level, in delivery order
  int finals = 0;
  int errors = 0;
  bool view_after_terminal = false;
  OpResult final_value;
  Version ack_version{};  // writes: the acknowledged store version
};

// Wires the oracle's callbacks onto one invocation's Correctable.
void Observe(Correctable<OpResult> c, const std::shared_ptr<Observation>& obs) {
  c.SetCallbacks(
      [obs](const View<OpResult>& v) {
        if (obs->finals + obs->errors > 0) {
          obs->view_after_terminal = true;
        }
        obs->delivered.push_back(v.level);
      },
      [obs](const View<OpResult>& v) {
        if (obs->finals + obs->errors > 0) {
          obs->view_after_terminal = true;
        }
        obs->finals++;
        obs->delivered.push_back(v.level);
        obs->final_value = v.value;
        obs->ack_version = v.value.version;
      },
      [obs](const Status&) {
        if (obs->finals + obs->errors > 0) {
          obs->view_after_terminal = true;
        }
        obs->errors++;
      });
}

// The oracle assertions every observation must satisfy, regardless of batching.
void CheckObservation(const Observation& obs, const std::string& context) {
  SCOPED_TRACE(context + " key=" + obs.key + " client=" + std::to_string(obs.client));
  // No lost finals: every invocation terminates; no duplicated finals either.
  EXPECT_EQ(obs.finals + obs.errors, 1) << "invocation must close exactly once";
  EXPECT_FALSE(obs.view_after_terminal) << "views delivered after the terminal view";
  // Weakest-first monotone delivery: levels never regress.
  for (size_t i = 1; i < obs.delivered.size(); ++i) {
    EXPECT_TRUE(IsStrongerOrEqual(obs.delivered[i], obs.delivered[i - 1]))
        << "view level regressed at position " << i;
  }
  if (obs.finals == 1) {
    ASSERT_FALSE(obs.delivered.empty());
    // The terminal view lands at the strongest requested level.
    EXPECT_EQ(obs.delivered.back(), obs.strongest);
    // And nothing ever exceeded the request or undercut the weakest.
    for (const ConsistencyLevel level : obs.delivered) {
      EXPECT_TRUE(IsStrongerOrEqual(obs.strongest, level));
      EXPECT_TRUE(IsStrongerOrEqual(level, obs.weakest));
    }
  }
}

// kKeys is a multiple of kClients so the single-writer-per-key partition below is
// exact: (index / kClients) * kClients + client never wraps onto another writer's key.
constexpr int kKeys = 39;
constexpr int kClients = 3;

std::string OracleKey(int index) { return "okey" + std::to_string(index); }

// Shared submission-order bookkeeping of the sharded trials, recorded at *submission*
// time (ops are scheduled at random instants, so creation order is not program order).
struct OracleLoad {
  std::vector<std::shared_ptr<Observation>> observations;
  std::shared_ptr<std::map<std::string, std::vector<std::string>>> submitted =
      std::make_shared<std::map<std::string, std::vector<std::string>>>();
  std::shared_ptr<std::map<std::string, std::vector<std::shared_ptr<Observation>>>>
      write_order =
          std::make_shared<std::map<std::string, std::vector<std::shared_ptr<Observation>>>>();
};

// Schedules `ops` random reads (weak/strong/ICG) and strong writes from the three
// clients at random instants over three seconds. Writes are single-writer-per-key
// (client c owns keys with index % kClients == c), so per-key program order has a crisp
// oracle: the last value that key's writer submitted must be what every replica
// converges to.
OracleLoad ScheduleRandomLoad(SimWorld& world, CorrectableClient* const clients[], Rng& rng,
                              int ops) {
  OracleLoad load;
  int write_counter = 0;
  for (int i = 0; i < ops; ++i) {
    const SimDuration at = static_cast<SimDuration>(rng.NextBounded(Seconds(3)));
    const size_t client_index = static_cast<size_t>(rng.NextBounded(kClients));
    const bool is_write = rng.NextBool(0.25);
    const int flavor = static_cast<int>(rng.NextBounded(3));  // reads: weak/strong/icg
    int key_index = static_cast<int>(rng.NextBounded(kKeys));
    if (is_write) {
      // Single writer per key: move to a key this client owns.
      key_index = (key_index / kClients) * kClients + static_cast<int>(client_index);
    }
    const std::string key = OracleKey(key_index);

    auto obs = std::make_shared<Observation>();
    obs->is_write = is_write;
    obs->client = client_index;
    obs->key = key;
    load.observations.push_back(obs);

    if (is_write) {
      const std::string value =
          "c" + std::to_string(client_index) + "-" + std::to_string(write_counter++);
      obs->written_value = value;
      obs->weakest = obs->strongest = ConsistencyLevel::kStrong;
      world.loop().Schedule(at, [client = clients[client_index], key, value, obs,
                                 submitted = load.submitted,
                                 write_order = load.write_order]() {
        (*submitted)[key].push_back(value);
        (*write_order)[key].push_back(obs);
        Observe(client->InvokeStrong(Operation::Put(key, value)), obs);
      });
      continue;
    }

    CorrectableClient* client = clients[client_index];
    if (flavor == 0) {
      obs->weakest = obs->strongest = ConsistencyLevel::kWeak;
      world.loop().Schedule(at, [client, key, obs]() {
        Observe(client->InvokeWeak(Operation::Get(key)), obs);
      });
    } else if (flavor == 1) {
      obs->weakest = obs->strongest = ConsistencyLevel::kStrong;
      world.loop().Schedule(at, [client, key, obs]() {
        Observe(client->InvokeStrong(Operation::Get(key)), obs);
      });
    } else {
      obs->weakest = ConsistencyLevel::kWeak;
      obs->strongest = ConsistencyLevel::kStrong;
      world.loop().Schedule(at, [client, key, obs]() {
        Observe(client->Invoke(Operation::Get(key)), obs);
      });
    }
  }
  return load;
}

// The post-run oracles shared by the sharded trials. Per-invocation contract first, then
// write program order per key two ways — through acknowledgements (versions a key's
// writes were acked under never regress in submission order; a batched flush acks its
// members under one version, so equal is fine, regression is not) and through replica
// state (after quiescence every replica holds the key's last submitted value) — and
// finally reads observing only preloaded or submitted values.
void CheckLoadOracles(const OracleLoad& load, const KvCluster& cluster,
                      const std::string& context) {
  for (const auto& obs : load.observations) {
    CheckObservation(*obs, context);
    EXPECT_EQ(obs->errors, 0) << "no failure injected, so nothing may fail (key="
                              << obs->key << ")";
  }
  for (const auto& [key, writes] : *load.write_order) {
    Version previous{};
    for (size_t i = 0; i < writes.size(); ++i) {
      if (writes[i]->finals != 1) {
        continue;
      }
      EXPECT_FALSE(writes[i]->ack_version < previous)
          << "ack versions regressed for " << key << " at write " << i;
      previous = writes[i]->ack_version;
    }
  }
  for (const auto& [key, values] : *load.submitted) {
    for (const auto& replica : cluster.replicas()) {
      const auto stored = replica->LocalGet(key);
      ASSERT_TRUE(stored.has_value()) << key;
      EXPECT_EQ(stored->value, values.back())
          << "replica diverged from program order for " << key << " (" << context << ")";
    }
  }
  for (const auto& obs : load.observations) {
    if (!obs->is_write && obs->finals == 1 && obs->final_value.found) {
      const auto& history = (*load.submitted)[obs->key];
      const bool known =
          obs->final_value.value == "init" ||
          std::find(history.begin(), history.end(), obs->final_value.value) != history.end();
      EXPECT_TRUE(known) << "read of " << obs->key << " returned a value never written: "
                         << obs->final_value.value;
    }
  }
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
  CorrectableClient* clients[kClients] = {stack.client(), frk.client.get(),
                                          vrg.client.get()};

  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload(OracleKey(i), "init");
  }

  Rng rng(seed * 31 + static_cast<uint64_t>(window));
  const OracleLoad load = ScheduleRandomLoad(world, clients, rng, /*ops=*/400);
  world.loop().Run();

  CheckLoadOracles(load, *stack.cluster, "sharded");

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
// every Correctable must still satisfy the full contract — weakest-first monotone
// delivery, exactly one terminal view, per-key write program order into replica state —
// and no invocation may be lost to a coordinator that left with work pending.
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
  CorrectableClient* clients[kClients] = {stack.client(), frk.client.get(),
                                          vrg.client.get()};

  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload(OracleKey(i), "init");
  }

  Rng rng(seed * 131 + static_cast<uint64_t>(window));
  const OracleLoad load = ScheduleRandomLoad(world, clients, rng, /*ops=*/400);

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

  // The full static-membership contract must hold verbatim under churn: per-invocation
  // monotone weakest-first delivery and exactly-one-terminal, per-key write program
  // order through acked versions AND replica convergence (churn may re-route a key's
  // writes to a new coordinator mid-stream), and reads observing only known values — a
  // rebalance must never surface a torn batch slice or a value from the wrong key.
  CheckLoadOracles(load, *stack.cluster, "churn");
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
//   * no acked write is lost: every replica converges to a value whose version is at
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

// Per-invocation contract when failures ARE injected: errors allowed, everything else
// identical to CheckObservation.
void CheckCrashObservation(const Observation& obs) {
  SCOPED_TRACE("key=" + obs.key + " client=" + std::to_string(obs.client));
  EXPECT_EQ(obs.finals + obs.errors, 1) << "invocation must close exactly once";
  EXPECT_FALSE(obs.view_after_terminal) << "views delivered after the terminal view";
  for (size_t i = 1; i < obs.delivered.size(); ++i) {
    EXPECT_TRUE(IsStrongerOrEqual(obs.delivered[i], obs.delivered[i - 1]))
        << "view level regressed at position " << i;
  }
  if (obs.finals == 1) {
    ASSERT_FALSE(obs.delivered.empty());
    EXPECT_EQ(obs.delivered.back(), obs.strongest);
    for (const ConsistencyLevel level : obs.delivered) {
      EXPECT_TRUE(IsStrongerOrEqual(obs.strongest, level));
      EXPECT_TRUE(IsStrongerOrEqual(level, obs.weakest));
    }
  }
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
  CorrectableClient* clients[kClients] = {stack.client(), frk.client.get(),
                                          vrg.client.get()};
  for (CorrectableClient* client : clients) {
    // A request parked on a corpse has no coordinator-side timeout to save it: the
    // client-side invocation timeout is what closes those terminals.
    client->SetTimeout(Seconds(3));
  }
  stack.SetShardQueueLimit(32);  // failover-window backpressure: shed, don't queue

  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload(OracleKey(i), "init");
  }
  stack.EnableFailureDetection();  // 50 ms heartbeat, 3 missed probes => failover

  Rng rng(seed * 173 + static_cast<uint64_t>(window));
  const OracleLoad load = ScheduleRandomLoad(world, clients, rng, /*ops=*/400);

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

  // Failover actually happened and was logged: detected after the crash, rejoined at
  // recovery, ring advanced by at least two epochs (route-around + re-admission).
  EXPECT_GE(stack.failovers(), 1);
  EXPECT_EQ(stack.failover_log().size(), 1u);
  if (stack.failover_log().empty()) {
    return "missing-failover-log";
  }
  const FailoverEvent& event = stack.failover_log().front();
  EXPECT_EQ(event.node, victim);
  EXPECT_TRUE(event.was_coordinator);
  EXPECT_GT(event.detected_at, event.crashed_at);
  EXPECT_LE(event.detected_at, Seconds(2));
  EXPECT_GE(event.rejoined_at, Seconds(2));
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

  // Per-invocation contract (errors legal in the failover window, nothing else is).
  for (const auto& obs : load.observations) {
    CheckCrashObservation(*obs);
  }

  // Zero acked loss, zero duplication: per key, find the LAST acked write in
  // submission order; every replica must converge to one common value whose version is
  // >= that ack — and if equal, carrying exactly the acked value.
  for (const auto& [key, writes] : *load.write_order) {
    const Observation* last_acked = nullptr;
    Version previous{};
    for (const auto& write : writes) {
      if (write->finals != 1) {
        continue;
      }
      EXPECT_FALSE(write->ack_version < previous)
          << "ack versions regressed for " << key;
      previous = write->ack_version;
      last_acked = write.get();
    }
    std::optional<VersionedValue> converged;
    for (const auto& replica : stack.cluster->replicas()) {
      const auto stored = replica->LocalGet(key);
      EXPECT_TRUE(stored.has_value()) << key;
      if (!stored.has_value()) {
        continue;
      }
      if (!converged.has_value()) {
        converged = stored;
      } else {
        EXPECT_EQ(*stored, *converged) << "replicas diverged for " << key;
      }
    }
    if (last_acked != nullptr && converged.has_value()) {
      EXPECT_FALSE(converged->version < last_acked->ack_version)
          << "acked write lost for " << key;
      if (converged->version == last_acked->ack_version) {
        EXPECT_EQ(converged->value, last_acked->written_value)
            << "acked version resurfaced with a different value for " << key;
      }
    }
  }

  // Reads observe only written values — a torn WAL tail or half-replayed record must
  // never surface.
  for (const auto& obs : load.observations) {
    if (!obs->is_write && obs->finals == 1 && obs->final_value.found) {
      const auto& history = (*load.submitted)[obs->key];
      const bool known =
          obs->final_value.value == "init" ||
          std::find(history.begin(), history.end(), obs->final_value.value) !=
              history.end();
      EXPECT_TRUE(known) << "read of " << obs->key
                         << " returned a value never written: " << obs->final_value.value;
    }
  }

  // The determinism fingerprint: every delivered level, terminal kind, final value and
  // version, in creation order.
  std::string fingerprint;
  for (const auto& obs : load.observations) {
    fingerprint += obs->key + (obs->is_write ? "W" : "R") + "[";
    for (const ConsistencyLevel level : obs->delivered) {
      fingerprint += std::to_string(static_cast<int>(level));
    }
    fingerprint += "]e" + std::to_string(obs->errors) + "=" + obs->final_value.value +
                   "#" + std::to_string(obs->final_value.version.timestamp) + "." +
                   std::to_string(obs->final_value.version.writer) + ";";
  }
  fingerprint += "|epoch=" + std::to_string(stack.ring_epoch()) +
                 "|replayed=" + std::to_string(recovered->last_recovery().wal_records_replayed) +
                 "|merged=" + std::to_string(recovered->last_recovery().bootstrap_keys_merged);
  return fingerprint;
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
  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload(OracleKey(i), "init");
  }

  Rng rng(seed * 17 + static_cast<uint64_t>(window));
  const int ops = 200;
  std::vector<std::shared_ptr<Observation>> observations;
  auto submitted = std::make_shared<std::map<std::string, std::vector<std::string>>>();
  int write_counter = 0;

  for (int i = 0; i < ops; ++i) {
    const SimDuration at = static_cast<SimDuration>(rng.NextBounded(Seconds(2)));
    const bool is_write = rng.NextBool(0.3);
    const std::string key = OracleKey(static_cast<int>(rng.NextBounded(kKeys)));
    auto obs = std::make_shared<Observation>();
    obs->is_write = is_write;
    obs->key = key;
    observations.push_back(obs);
    if (is_write) {
      const std::string value = "w" + std::to_string(write_counter++);
      obs->written_value = value;
      obs->weakest = obs->strongest = ConsistencyLevel::kCausal;
      world.loop().Schedule(at, [client = stack.client.get(), key, value, obs, submitted]() {
        (*submitted)[key].push_back(value);
        Observe(client->InvokeStrong(Operation::Put(key, value)), obs);
      });
    } else {
      obs->weakest = ConsistencyLevel::kCache;
      obs->strongest = ConsistencyLevel::kCausal;
      world.loop().Schedule(at, [client = stack.client.get(), key, obs]() {
        Observe(client->Invoke(Operation::Get(key)), obs);
      });
    }
  }

  world.loop().Run();
  for (const auto& obs : observations) {
    CheckObservation(*obs, "causal");
    EXPECT_EQ(obs->errors, 0);
  }
  // Program order into the coordinating replica (its peers converge causally).
  for (const auto& [key, values] : *submitted) {
    const auto stored = stack.cluster->ReplicaIn(Region::kIreland)->LocalGet(key);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, values.back()) << key;
  }
  // Write-through coherence survived batching: the cache never holds a value that was
  // never written.
  for (int i = 0; i < kKeys; ++i) {
    const auto cached = stack.cache->Get(OracleKey(i));
    if (!cached.has_value() || !cached->found) {
      continue;
    }
    const auto& history = (*submitted)[OracleKey(i)];
    EXPECT_TRUE(cached->value == "init" ||
                std::find(history.begin(), history.end(), cached->value) != history.end())
        << "cache holds unwritten value for " << OracleKey(i);
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
