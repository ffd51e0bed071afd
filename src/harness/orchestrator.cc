#include "src/harness/orchestrator.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

namespace icg {

ControlAction OrchestratorPolicy::Emit(EventKind kind, size_t detail) {
  cooldown_ = kCooldownIntervals;
  return ControlAction{kind, detail};
}

ControlAction OrchestratorPolicy::Decide(const ControlSample& sample) {
  if (sample.shards.empty()) {
    // Degenerate window: nothing to judge, and no episode to extend.
    shed_streak_ = 0;
    cool_streak_ = 0;
    return {};
  }

  // Order-invariant aggregates: sums over the shard vector, never positional reads.
  size_t total_outstanding = 0;
  for (const ShardSignal& shard : sample.shards) {
    total_outstanding += shard.outstanding;
  }
  const double per_shard = static_cast<double>(total_outstanding) /
                           static_cast<double>(sample.shards.size());

  // Streaks advance every interval — cooldown gates emission, not observation, so a
  // saturation episode keeps accumulating evidence while an earlier action settles.
  const bool shedding = sample.shed_delta > 0;
  shed_streak_ = shedding ? shed_streak_ + 1 : 0;
  const bool cool = !shedding && per_shard <= kCoolOutstandingPerShard;
  cool_streak_ = cool ? cool_streak_ + 1 : 0;

  if (cooldown_ > 0) {
    --cooldown_;
    return {};
  }

  // 1) Sustained sheds: the ring is refusing work — capacity before batching.
  if (shed_streak_ >= kShedIntervalsToScaleOut && sample.spare_replicas > 0 &&
      sample.shards.size() < kMaxCoordinators) {
    shed_streak_ = 0;
    return Emit(EventKind::kScaleOut, 0);
  }

  // 2) Saturation: deep per-shard queues (or sheds with nothing to promote) — climb
  // the window ladder to cut msgs/op.
  const size_t ladder = std::min(kWindowLadder.size(), sample.window_ladder_size);
  if ((per_shard >= kWidenOutstandingPerShard || shedding) &&
      sample.window_index + 1 < ladder) {
    return Emit(EventKind::kWiden, sample.window_index + 1);
  }

  // 3) Idle: shallow queues and a clean interval — step back down for latency.
  if (!shedding && per_shard <= kShrinkOutstandingPerShard &&
      sample.window_index > 0) {
    return Emit(EventKind::kShrink, sample.window_index - 1);
  }

  // 4) Sustained cool: retire the coordinator owning the least keyspace. Strictly
  // unreachable when shed_delta > 0 — shedding reset the cool streak above.
  if (cool_streak_ >= kCoolIntervalsToScaleIn &&
      sample.shards.size() > min_coordinators_) {
    const ShardSignal* victim = nullptr;
    for (const ShardSignal& shard : sample.shards) {
      if (victim == nullptr || shard.primary_share < victim->primary_share ||
          (shard.primary_share == victim->primary_share && shard.shard < victim->shard)) {
        victim = &shard;
      }
    }
    cool_streak_ = 0;
    return Emit(EventKind::kScaleIn, victim->shard);
  }

  return {};
}

Orchestrator::Orchestrator(SimWorld* world, ShardedCassandraStack* stack)
    : world_(world), stack_(stack), policy_(stack->coordinator_ids().size()) {
  assert(world_ != nullptr && stack_ != nullptr);
  // Join the ladder at the stack's current window (rung 0 if it is off-ladder).
  const SimDuration current = stack_->batch_window();
  for (size_t i = 0; i < kWindowLadder.size(); ++i) {
    if (kWindowLadder[i] == current) {
      window_index_ = i;
      break;
    }
  }
}

void Orchestrator::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  // Baseline the shed aggregate so the first tick's delta covers exactly one interval.
  last_total_sheds_ = TotalSheds();
  ScheduleTick();
}

void Orchestrator::Stop() {
  running_ = false;
  if (tick_timer_ != 0) {
    world_->loop().Cancel(tick_timer_);
    tick_timer_ = 0;
  }
}

void Orchestrator::ScheduleTick() {
  tick_timer_ = world_->loop().Schedule(kControlInterval, [this]() {
    tick_timer_ = 0;
    Tick();
    ScheduleTick();
  });
}

int64_t Orchestrator::TotalSheds() const {
  int64_t total = 0;
  for (const auto& endpoint : stack_->endpoints()) {
    total += endpoint->router->LoadSnapshot().total_sheds();
  }
  return total;
}

ControlSample Orchestrator::Sample() {
  ControlSample sample;
  sample.window_index = window_index_;
  sample.window_ladder_size = kWindowLadder.size();

  // Aggregate every endpoint's router: each client queues and sheds independently, and
  // the controller judges the deployment as a whole. InstallRing keeps all endpoints
  // on the stack's epoch, so per-index sums line up.
  const size_t n_shards = stack_->coordinator_ids().size();
  std::vector<size_t> outstanding(n_shards, 0);
  int64_t total_sheds = 0;
  for (const auto& endpoint : stack_->endpoints()) {
    const RouterLoadSnapshot snapshot = endpoint->router->LoadSnapshot();
    for (size_t i = 0; i < snapshot.shards.size() && i < n_shards; ++i) {
      outstanding[i] += snapshot.shards[i].outstanding;
    }
    total_sheds += snapshot.total_sheds();
  }
  sample.shed_delta = total_sheds - last_total_sheds_;
  last_total_sheds_ = total_sheds;

  // Keyspace share per coordinator: seeded estimate, a pure function of the ring.
  const std::map<NodeId, double> shares = stack_->shard_map().PrimaryLoadEstimate(
      kLoadEstimateSamples, kLoadEstimateSeed);
  sample.shards.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    ShardSignal signal;
    signal.shard = i;
    signal.outstanding = outstanding[i];
    const auto it = shares.find(stack_->coordinator_ids()[i]);
    signal.primary_share = it != shares.end() ? it->second : 0.0;
    sample.shards.push_back(signal);
  }
  sample.spare_replicas = stack_->cluster->replicas().size() - n_shards;
  return sample;
}

void Orchestrator::Apply(const ControlAction& action) {
  if (!action.kind) {
    return;
  }
  NodeId node = kInvalidNode;
  int64_t detail = 0;
  switch (*action.kind) {
    case EventKind::kWiden:
    case EventKind::kShrink:
      window_index_ = action.detail;
      stack_->SetBatchWindow(kWindowLadder[window_index_]);
      detail = static_cast<int64_t>(window_index_);
      break;
    case EventKind::kScaleOut:
      // First spare in cluster order: deterministic.
      for (const auto& replica : stack_->cluster->replicas()) {
        const auto& ring = stack_->coordinator_ids();
        if (std::find(ring.begin(), ring.end(), replica->id()) == ring.end()) {
          node = replica->id();
          break;
        }
      }
      if (node == kInvalidNode) {
        return;  // raced a concurrent membership change; nothing to promote
      }
      stack_->AddCoordinator(node);
      detail = static_cast<int64_t>(stack_->coordinator_ids().size());
      break;
    case EventKind::kScaleIn:
      if (action.detail >= stack_->coordinator_ids().size() ||
          stack_->coordinator_ids().size() <= 1) {
        return;
      }
      node = stack_->coordinator_ids()[action.detail];
      stack_->RemoveCoordinator(node);
      detail = static_cast<int64_t>(stack_->coordinator_ids().size());
      break;
    default:
      return;  // not a control action
  }
  world_->journal().Append(*action.kind, node, stack_->ring_epoch(), detail);
}

void Orchestrator::Tick() {
  Apply(policy_.Decide(Sample()));
}

}  // namespace icg
