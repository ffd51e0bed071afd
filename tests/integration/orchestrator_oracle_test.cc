// Self-driving control plane oracle: ONE sharded-Cassandra world (5 replicas, 2
// starting coordinators) under a seeded randomized multi-client load whose offered
// rate ramps 10x mid-run and then decays.
// The Orchestrator runs as a real control loop inside the deployment — sampling router
// snapshots and keyspace shares every 250ms of virtual time, widening/shrinking the
// batch window, scaling coordinators out on sustained sheds and back in as the ring
// cools — while the full ICG contract is enforced through every controller action:
// weakest-first monotone delivery, exactly one terminal per admitted invocation, no
// views after a terminal, per-key program order into replica state. Overload sheds are
// the one sanctioned "failure": they surface synchronously as retryable kOverloaded
// errors and the workload retries them with a virtual-time backoff.
//
// Two runs with the same seed must produce a bit-for-bit identical fingerprint,
// INCLUDING the orchestrator's applied-action log: same actions, same virtual
// timestamps, same ring epochs; the next seed must produce a different one. On top of
// determinism the trial asserts the episode shape — the ramp provokes sheds and at
// least one scale-out, the controller returns the deployment to a quiescent config
// once load settles (no actions at all in the final settle window), and each knob
// flips direction at most once per episode (out...out,in...in — never out,in,out
// thrash).
//
// The RNG seed comes from ICG_ORACLE_SEED (default 12345); CI sweeps several seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/harness/deployment.h"
#include "src/harness/executors.h"
#include "src/harness/orchestrator.h"

namespace icg {
namespace {

uint64_t OracleSeed() {
  const char* env = std::getenv("ICG_ORACLE_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 12345;
}

constexpr int kStartCoordinators = 2;
constexpr int kKeys = 24;
constexpr int kClients = 3;
constexpr size_t kQueueLimit = 8;
constexpr SimDuration kRetryBackoff = Millis(50);

std::string OracleKey(int index) { return "akey" + std::to_string(index); }

struct Observation {
  bool is_write = false;
  std::string key;
  ConsistencyLevel weakest = ConsistencyLevel::kStrong;
  ConsistencyLevel strongest = ConsistencyLevel::kStrong;
  std::vector<ConsistencyLevel> delivered;
  int finals = 0;
  int errors = 0;
  StatusCode error_code = StatusCode::kOk;
  bool view_after_terminal = false;
  OpResult final_value;
  SimTime final_at = -1;
};

// Every invocation owes the ICG contract: exactly one terminal, no views after it,
// monotone weakest-first delivery. The ONE sanctioned terminal error is a retryable
// overload shed — backpressure is how the deployment signals the controller, so the
// oracle admits it (and the workload retries it) but nothing else may fail.
void CheckObservation(const Observation& obs) {
  SCOPED_TRACE("key=" + obs.key);
  EXPECT_EQ(obs.finals + obs.errors, 1) << "invocation must close exactly once";
  if (obs.errors == 1) {
    EXPECT_EQ(obs.error_code, StatusCode::kOverloaded)
        << "only backpressure sheds may fail an invocation";
  }
  EXPECT_FALSE(obs.view_after_terminal);
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

struct TrialState {
  explicit TrialState(uint64_t seed) : world(seed) {}

  SimWorld world;
  std::unique_ptr<ShardedCassandraStack> stack;
  std::vector<std::shared_ptr<Observation>> observations;
  std::map<std::string, std::vector<std::string>> submitted;
  int64_t shed_attempts = 0;
};

// Submits one logical operation, retrying overload sheds after a virtual-time backoff.
// Sheds surface two ways and both retry: synchronously at admission (queue over limit
// when the invocation routes) and asynchronously at cohort flush (the batch window
// held the op while the shard went over). A synchronous shed never creates an
// Observation; an async shed closes its Observation with the one sanctioned error and
// re-invokes — a fresh invocation with a fresh LWW stamp, so `submitted` (appended at
// admission, un-appended on a shed) always lists admitted writes in stamp order.
void Launch(TrialState& trial, EventLoop* front, CorrectableClient* client,
            bool is_write, int flavor, const std::string& key,
            const std::string& value) {
  Correctable<OpResult> c =
      is_write      ? client->InvokeStrong(Operation::Put(key, value))
      : flavor == 0 ? client->InvokeWeak(Operation::Get(key))
      : flavor == 1 ? client->InvokeStrong(Operation::Get(key))
                    : client->Invoke(Operation::Get(key));
  const auto retry = [&trial, front, client, is_write, flavor, key, value]() {
    front->Schedule(kRetryBackoff, [&trial, front, client, is_write, flavor, key,
                                    value]() {
      Launch(trial, front, client, is_write, flavor, key, value);
    });
  };
  if (c.state() == CorrectableState::kError &&
      c.error().code() == StatusCode::kOverloaded) {
    ++trial.shed_attempts;
    retry();
    return;
  }
  auto obs = std::make_shared<Observation>();
  obs->is_write = is_write;
  obs->key = key;
  if (is_write || flavor == 1) {
    obs->weakest = obs->strongest = ConsistencyLevel::kStrong;
  } else if (flavor == 0) {
    obs->weakest = obs->strongest = ConsistencyLevel::kWeak;
  } else {
    obs->weakest = ConsistencyLevel::kWeak;
    obs->strongest = ConsistencyLevel::kStrong;
  }
  if (is_write) {
    trial.submitted[key].push_back(value);
  }
  trial.observations.push_back(obs);
  c.SetCallbacks(
      [obs](const View<OpResult>& v) {
        if (obs->finals + obs->errors > 0) obs->view_after_terminal = true;
        obs->delivered.push_back(v.level);
      },
      [obs, front](const View<OpResult>& v) {
        if (obs->finals + obs->errors > 0) obs->view_after_terminal = true;
        obs->finals++;
        obs->delivered.push_back(v.level);
        obs->final_value = v.value;
        obs->final_at = front->Now();
      },
      [obs, retry, &trial, is_write, key, value](const Status& status) {
        if (obs->finals + obs->errors > 0) obs->view_after_terminal = true;
        obs->errors++;
        obs->error_code = status.code();
        if (status.code() == StatusCode::kOverloaded) {
          ++trial.shed_attempts;
          if (is_write) {
            // The shed write never applied; drop it so `submitted` keeps listing
            // exactly the admitted-and-applied stamps in order (values are unique).
            auto& values = trial.submitted[key];
            values.erase(std::remove(values.begin(), values.end(), value),
                         values.end());
          }
          retry();
        }
      });
}

std::string Fingerprint(const TrialState& trial) {
  std::ostringstream out;
  for (const auto& obs : trial.observations) {
    out << obs->key << (obs->is_write ? "W" : "R") << "[";
    for (const ConsistencyLevel level : obs->delivered) {
      out << static_cast<int>(level);
    }
    out << "]=" << obs->final_value.value << "#" << obs->final_value.version.timestamp
        << "." << obs->final_value.version.writer << "@" << obs->final_at << ";";
  }
  return out.str();
}

std::string RunAutoscaleTrial(uint64_t seed) {
  SCOPED_TRACE("autoscale seed=" + std::to_string(seed));

  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;

  TrialState trial(seed * 19);
  trial.stack = std::make_unique<ShardedCassandraStack>(MakeShardedCassandraStack(
      trial.world, kStartCoordinators, KvConfig{}, binding, Region::kIreland,
      {Region::kFrankfurt, Region::kIreland, Region::kVirginia, Region::kCalifornia,
       Region::kOregon}));
  auto& frk = AddShardedCassandraClient(trial.world, *trial.stack, binding,
                                        Region::kFrankfurt);
  auto& vrg = AddShardedCassandraClient(trial.world, *trial.stack, binding,
                                        Region::kVirginia);
  std::vector<CorrectableClient*> clients = {trial.stack->client(), frk.client.get(),
                                             vrg.client.get()};
  trial.stack->SetShardQueueLimit(kQueueLimit);
  for (int i = 0; i < kKeys; ++i) {
    trial.stack->cluster->Preload(OracleKey(i), "init");
  }

  // The controller under test. min_coordinators = kStartCoordinators gives the
  // scale-in cascade a floor the episode must return to.
  OrchestratorOptions orch_options;
  orch_options.min_coordinators = kStartCoordinators;
  Orchestrator orchestrator(&trial.world, trial.stack.get(), orch_options);
  orchestrator.Start();
  EXPECT_EQ(orchestrator.window_index(), 0u);  // batching starts disabled (rung 0)

  // Offered load: ~80 ops/s for 2s, a 10x ramp (~800 ops/s) for 1.5s, then ~80 ops/s
  // again for 2s. Writes are key-partitioned per client so per-key program order stays
  // a checkable invariant even with shed-and-retry in the mix.
  struct Phase {
    SimTime start;
    SimDuration length;
    int ops;
  };
  const Phase phases[] = {
      {0, Seconds(2), 160},
      {Seconds(2), Millis(1500), 1200},
      {Seconds(2) + Millis(1500), Seconds(2), 160},
  };
  Rng rng(seed * 53);
  EventLoop* front = &trial.world.loop();
  int write_counter = 0;
  for (const Phase& phase : phases) {
    for (int i = 0; i < phase.ops; ++i) {
      const SimTime at =
          phase.start + static_cast<SimTime>(rng.NextBounded(phase.length));
      const size_t client_index = static_cast<size_t>(rng.NextBounded(kClients));
      const bool is_write = rng.NextBool(0.25);
      const int flavor = static_cast<int>(rng.NextBounded(3));
      int key_index = static_cast<int>(rng.NextBounded(kKeys));
      if (is_write) {
        key_index = (key_index / kClients) * kClients + static_cast<int>(client_index);
      }
      const std::string key = OracleKey(key_index);
      std::string value;
      if (is_write) {
        value = "c" + std::to_string(client_index) + "-" +
                std::to_string(write_counter++);
      }
      CorrectableClient* client = clients[client_index];
      front->Schedule(at, [&trial, front, client, is_write, flavor, key, value]() {
        Launch(trial, front, client, is_write, flavor, key, value);
      });
    }
  }

  // Drive well past the load so the controller can finish the whole episode: widen and
  // scale out through the ramp, then shrink and scale back in as the ring cools.
  front->RunUntil(Seconds(12));
  orchestrator.Stop();
  front->Run();

  for (const auto& obs : trial.observations) {
    CheckObservation(*obs);
  }
  // Per-key program order across every controller action: each replica converged to
  // the last admitted write whatever the ring did in between.
  for (const auto& [key, values] : trial.submitted) {
    for (const auto& replica : trial.stack->cluster->replicas()) {
      const auto stored = replica->LocalGet(key);
      EXPECT_TRUE(stored.has_value()) << key;
      if (!stored.has_value()) continue;
      EXPECT_EQ(stored->value, values.back())
          << "replica diverged from program order for " << key;
    }
  }

  // Episode shape. The ramp must overflow the shard queues and provoke a scale-out;
  // once load settles the controller must hand back a quiescent deployment: window at
  // the bottom rung, ring back at the floor, and NO actions in the settle window.
  EXPECT_GT(trial.shed_attempts, 0) << "the 10x ramp never overflowed a shard queue";
  int scale_outs = 0;
  for (const OrchestratorEvent& event : orchestrator.events()) {
    if (event.kind == ControlActionKind::kScaleOut) ++scale_outs;
    EXPECT_LT(event.at, Seconds(10))
        << "controller still acting long after the load settled: "
        << ControlActionName(event.kind) << " at " << event.at;
  }
  EXPECT_GE(scale_outs, 1);
  EXPECT_EQ(orchestrator.window_index(), 0u);
  EXPECT_EQ(trial.stack->coordinator_ids().size(),
            static_cast<size_t>(kStartCoordinators));

  // At most one direction flip per knob per episode: the window may widen then come
  // back down, the ring may grow then shrink — but never thrash out/in/out.
  int window_flips = 0;
  int ring_flips = 0;
  int last_window_dir = 0;
  int last_ring_dir = 0;
  for (const OrchestratorEvent& event : orchestrator.events()) {
    int dir = 0;
    bool ring = false;
    switch (event.kind) {
      case ControlActionKind::kWidenWindow: dir = +1; break;
      case ControlActionKind::kShrinkWindow: dir = -1; break;
      case ControlActionKind::kScaleOut: dir = +1; ring = true; break;
      case ControlActionKind::kScaleIn: dir = -1; ring = true; break;
      default: break;
    }
    if (dir == 0) continue;
    if (ring) {
      if (last_ring_dir != 0 && dir != last_ring_dir) ++ring_flips;
      last_ring_dir = dir;
    } else {
      if (last_window_dir != 0 && dir != last_window_dir) ++window_flips;
      last_window_dir = dir;
    }
  }
  EXPECT_LE(window_flips, 1) << "batch window thrashed";
  EXPECT_LE(ring_flips, 1) << "coordinator ring thrashed";

  // The applied-action log is part of the determinism contract: same decisions, same
  // virtual timestamps, same ring epochs for the same seed.
  return Fingerprint(trial) + "|orch:" + orchestrator.EventLogFingerprint() + "|epoch" +
         std::to_string(trial.stack->ring_epoch()) + "|sheds" +
         std::to_string(trial.shed_attempts);
}

TEST(OrchestratorOracle, ControlDecisionsAreSeedDeterministic) {
  const uint64_t seed = OracleSeed();
  const std::string first = RunAutoscaleTrial(seed);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(RunAutoscaleTrial(seed), first);
  EXPECT_NE(RunAutoscaleTrial(seed + 1), first);
}

}  // namespace
}  // namespace icg
