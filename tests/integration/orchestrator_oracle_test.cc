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
// INCLUDING the world's journal of applied actions and ring changes: same actions, same
// virtual timestamps, same ring epochs; the next seed must produce a different one. On top of
// determinism the trial asserts the episode shape — the ramp provokes sheds and at
// least one scale-out, the controller returns the deployment to a quiescent config
// once load settles (no actions at all in the final settle window), and each knob
// flips direction at most once per episode (out...out,in...in — never out,in,out
// thrash).
//
// The RNG seed comes from ICG_ORACLE_SEED (default 12345); CI sweeps several seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/common/random.h"
#include "src/harness/deployment.h"
#include "src/harness/icg_oracle.h"
#include "src/harness/orchestrator.h"

namespace icg {
namespace {

constexpr int kStartCoordinators = 2;
constexpr size_t kQueueLimit = 8;

std::string RunAutoscaleTrial(uint64_t seed) {
  SCOPED_TRACE("autoscale seed=" + std::to_string(seed));

  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;

  SimWorld world(seed * 19);
  auto stack = MakeShardedCassandraStack(
      world, kStartCoordinators, KvConfig{}, binding, Region::kIreland,
      {Region::kFrankfurt, Region::kIreland, Region::kVirginia, Region::kCalifornia,
       Region::kOregon});
  auto& frk = AddShardedCassandraClient(world, stack, binding, Region::kFrankfurt);
  auto& vrg = AddShardedCassandraClient(world, stack, binding, Region::kVirginia);
  stack.SetShardQueueLimit(kQueueLimit);

  // Offered load: ~80 ops/s for 2s, a 10x ramp (~800 ops/s) for 1.5s, then ~80 ops/s
  // again for 2s. Writes are key-partitioned per client so per-key program order stays
  // a checkable invariant even with shed-and-retry in the mix: every shed (at admission
  // or at cohort flush) retries after 50ms of virtual time as a fresh invocation.
  RandomKvLoadSpec spec;
  spec.key_prefix = "akey";
  spec.keys = 24;
  spec.phases = {{0, Seconds(2), 160},
                 {Seconds(2), Millis(1500), 1200},
                 {Seconds(2) + Millis(1500), Seconds(2), 160}};
  spec.shed_retry = Millis(50);
  ContractChecker checker(SanctionedError::kOverloaded, &world.loop());
  RandomKvLoad load({stack.client(), frk.client.get(), vrg.client.get()}, &checker, spec);
  load.Preload(*stack.cluster);

  // The controller under test. The starting ring size (kStartCoordinators) is the
  // scale-in floor the episode must return to.
  Orchestrator orchestrator(&world, &stack);
  orchestrator.Start();
  EXPECT_EQ(orchestrator.window_index(), 0u);  // batching starts disabled (rung 0)

  Rng rng(seed * 53);
  load.Schedule(rng);

  // Drive well past the load so the controller can finish the whole episode: widen and
  // scale out through the ramp, then shrink and scale back in as the ring cools.
  world.loop().RunUntil(Seconds(12));
  orchestrator.Stop();
  world.loop().Run();

  // The contract through every controller action, and per-key program order: each
  // replica converged to the last admitted write whatever the ring did in between.
  checker.Finish();
  checker.CheckProgramOrder(*stack.cluster);
  EXPECT_EQ(checker.violations().total(), 0) << checker.Report();

  // Episode shape. The ramp must overflow the shard queues and provoke a scale-out;
  // once load settles the controller must hand back a quiescent deployment: window at
  // the bottom rung, ring back at the floor, and NO actions in the settle window.
  EXPECT_GT(load.sheds(), 0) << "the 10x ramp never overflowed a shard queue";
  const Journal& journal = world.journal();
  for (const JournalEntry& entry : journal.entries()) {
    EXPECT_LT(entry.at, Seconds(10))
        << "controller still acting long after the load settled: "
        << EventKindName(entry.kind) << " at " << entry.at;
  }
  EXPECT_GE(journal.Count(EventKind::kScaleOut), 1);
  EXPECT_EQ(orchestrator.window_index(), 0u);
  EXPECT_EQ(stack.coordinator_ids().size(),
            static_cast<size_t>(kStartCoordinators));

  // At most one direction flip per knob per episode: the window may widen then come
  // back down, the ring may grow then shrink — but never thrash out/in/out.
  int window_flips = 0;
  int ring_flips = 0;
  int last_window_dir = 0;
  int last_ring_dir = 0;
  for (const JournalEntry& entry : journal.entries()) {
    int dir = 0;
    bool ring = false;
    switch (entry.kind) {
      case EventKind::kWiden: dir = +1; break;
      case EventKind::kShrink: dir = -1; break;
      case EventKind::kScaleOut: dir = +1; ring = true; break;
      case EventKind::kScaleIn: dir = -1; ring = true; break;
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

  // The journal is part of the determinism contract: same decisions, same virtual
  // timestamps, same ring epochs for the same seed.
  return std::to_string(checker.fingerprint()) + "|journal:" + journal.Fingerprint() +
         "|sheds" + std::to_string(load.sheds());
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
