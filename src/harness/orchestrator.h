// The self-driving control plane: a periodic virtual-time control loop that watches
// the load signals the deployment already exposes and drives its knobs itself.
//
//   signals                       decisions                  actuators
//   -------                       ---------                  ---------
//   RouterLoadSnapshot            OrchestratorPolicy         SetBatchWindow
//     per-shard outstanding   ->    pure, order-invariant ->   (batch-window ladder)
//     aggregate shed deltas         hysteresis + streaks     AddCoordinator /
//   PrimaryLoadEstimate             + cooldown; at most        RemoveCoordinator
//     per-shard keyspace share      ONE action / interval      (versioned ApplyRing)
//
// OrchestratorPolicy is the pure decision function: it consumes one ControlSample per
// interval and returns at most one ControlAction, with every aggregate computed
// order-invariantly and every tie broken deterministically, so the metamorphic suite
// can probe it directly. Orchestrator is the harness glue: it samples the running
// deployment, applies the decision, and reschedules itself as a timer on the world's
// loop, so every actuation runs between two simulated events, like any other task.
//
// Determinism argument: every input is a virtual-time counter (router snapshots,
// PrimaryLoadEstimate under a fixed seed) — never a wall-clock metric — and ticks are
// timers on the world's own loop. So the applied actions, which the orchestrator appends
// to the world's journal, are a pure function of the seed; the orchestrator oracle
// checks that two same-seed runs produce the same Journal::Fingerprint().
//
// The batch-window ladder is {0, 1ms, 5ms, 20ms} — the BENCH_batch_window
// operating points, where msgs/op falls 6.31 -> 4.88 -> 3.19 -> 1.53 for a p50 cost of
// a few ms: each widen step buys roughly a third fewer round-trips, so the controller
// climbs under saturation and steps back down one rung at a time when idle.
#ifndef ICG_HARNESS_ORCHESTRATOR_H_
#define ICG_HARNESS_ORCHESTRATOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/types.h"
#include "src/harness/deployment.h"
#include "src/harness/journal.h"

namespace icg {

// One decision: nothing (no kind), a batch-window rung change (kWiden/kShrink) or a ring
// change (kScaleOut/kScaleIn), in the journal's kinds.
struct ControlAction {
  std::optional<EventKind> kind;
  // kWiden/kShrink: the new ladder index. kScaleIn: the shard index whose coordinator
  // should retire. Otherwise 0.
  size_t detail = 0;
};

// One shard's signals within a sample. `primary_share` is that coordinator's share of
// the keyspace per Partitioner::PrimaryLoadEstimate (seeded, so run-to-run identical).
struct ShardSignal {
  size_t shard = 0;
  size_t outstanding = 0;
  double primary_share = 0.0;
};

// Everything the policy sees for one control interval. All fields derive from
// virtual-time state; shard order must not affect the decision (the metamorphic suite
// feeds reversed vectors).
struct ControlSample {
  std::vector<ShardSignal> shards;
  // Aggregate sheds since the previous sample, from RouterLoadSnapshot::total_sheds()
  // — monotone across ring changes, so the delta is epoch-safe.
  int64_t shed_delta = 0;
  size_t spare_replicas = 0;  // cluster replicas not currently coordinating
  size_t window_index = 0;    // current rung on the batch-window ladder
  size_t window_ladder_size = 0;
};

// Virtual time between control ticks. 250 ms gives the WAN topology (~90 ms worst RTT) a
// full round trip of settling between consecutive decisions.
inline constexpr SimDuration kControlInterval = Millis(250);
// Batch-window rungs, ascending (see the file comment for where they come from).
inline constexpr std::array<SimDuration, 4> kWindowLadder = {0, Millis(1), Millis(5),
                                                             Millis(20)};
// Upper bound on the coordinator ring the controller scales out to.
inline constexpr size_t kMaxCoordinators = 64;
// PrimaryLoadEstimate sampling (harness-side): a fixed count and seed keep the estimate a
// pure function of the ring.
inline constexpr int kLoadEstimateSamples = 128;
inline constexpr uint64_t kLoadEstimateSeed = 42;

// Hysteresis bands on mean outstanding-per-shard: widen at or above the high band,
// shrink at or below the low band. The gap between them is what prevents the window
// from oscillating when load sits between the rungs.
inline constexpr double kWidenOutstandingPerShard = 16.0;
inline constexpr double kShrinkOutstandingPerShard = 2.0;
// Consecutive shedding intervals before scaling the ring out: one interval of sheds may
// be a transient burst; two means the queue limit is genuinely too tight.
inline constexpr int kShedIntervalsToScaleOut = 2;
// Consecutive cool intervals (no sheds AND outstanding at or under the cool band) before
// scaling in. Deliberately the slow direction: growing too late sheds work, shrinking
// too early immediately re-sheds it.
inline constexpr int kCoolIntervalsToScaleIn = 6;
inline constexpr double kCoolOutstandingPerShard = 1.0;
// Decide() calls to sit out after emitting an action, letting its effect reach the
// counters before the next judgement.
inline constexpr int kCooldownIntervals = 2;

// The pure decision core. Holds only deterministic episode state (streaks, cooldown);
// feeding the same sample sequence always yields the same action sequence.
class OrchestratorPolicy {
 public:
  // Scale-in never shrinks the ring below `min_coordinators`.
  explicit OrchestratorPolicy(size_t min_coordinators) : min_coordinators_(min_coordinators) {}

  // One control interval: returns at most one action. Streaks update every call (even
  // under cooldown, so a saturation episode is never under-counted); the cooldown only
  // gates *emission*. Priority when several conditions hold: scale-out (sheds mean
  // work is being refused — capacity first), then widen (cut msgs/op under
  // saturation), then shrink, then scale-in (the most disruptive, and the slowest to
  // qualify). Monotone by construction: a strictly higher shed_delta can only extend
  // the shed streak and reset the cool streak, so it never triggers scale-in.
  ControlAction Decide(const ControlSample& sample);

 private:
  ControlAction Emit(EventKind kind, size_t detail);

  size_t min_coordinators_;
  int cooldown_ = 0;
  int shed_streak_ = 0;  // consecutive intervals with shed_delta > 0
  int cool_streak_ = 0;  // consecutive intervals cool enough to justify scale-in
};

// Harness glue: samples the deployment, lets the policy decide, actuates, repeats, and
// journals every applied action. Construct after building the stack — the ring size it
// sees then is the floor scale-in returns to — then Start(); call Stop() before draining
// the world with Run (the tick is self-rescheduling, like the failure detector's probe
// timer). The orchestrator must outlive the world's last event.
class Orchestrator {
 public:
  Orchestrator(SimWorld* world, ShardedCassandraStack* stack);

  // Baselines the shed counters and schedules the first tick one control interval
  // from now.
  void Start();
  // Stops the loop: cancels the pending tick, so the world can drain to quiescence.
  void Stop();

  size_t window_index() const { return window_index_; }

 private:
  void ScheduleTick();
  void Tick();
  ControlSample Sample();
  void Apply(const ControlAction& action);
  int64_t TotalSheds() const;

  SimWorld* world_;
  ShardedCassandraStack* stack_;
  OrchestratorPolicy policy_;

  bool running_ = false;
  TimerId tick_timer_ = 0;
  size_t window_index_ = 0;
  int64_t last_total_sheds_ = 0;
};

}  // namespace icg

#endif  // ICG_HARNESS_ORCHESTRATOR_H_
