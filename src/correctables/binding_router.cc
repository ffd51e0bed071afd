#include "src/correctables/binding_router.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <utility>

#include "src/common/pooled.h"

namespace icg {
namespace {

// One shard's slice of a cross-shard multiget: the sub-keys it owns and their positions
// in the original key list (for reassembling the merged payload in request order).
struct ShardSlice {
  size_t shard = 0;
  std::vector<std::string> keys;
  std::vector<size_t> positions;
};

std::vector<ShardSlice> SliceByShard(const BindingRouter& router,
                                     const std::vector<std::string>& keys) {
  // A multiget spans a handful of shards at most: a linear scan over the slices built so
  // far finds a key's slice without a map and its node allocations.
  std::vector<ShardSlice> slices;
  for (size_t pos = 0; pos < keys.size(); ++pos) {
    const size_t shard = router.ShardIndexFor(keys[pos]);
    auto it = std::find_if(slices.begin(), slices.end(),
                           [shard](const ShardSlice& slice) { return slice.shard == shard; });
    if (it == slices.end()) {
      it = slices.insert(slices.end(), ShardSlice{shard, {}, {}});
    }
    it->keys.push_back(keys[pos]);
    it->positions.push_back(pos);
  }
  return slices;
}

// Per-level merge state of one scatter-gather: every shard's response at that level,
// completed (and emitted) once no slot is outstanding.
struct LevelGather {
  std::vector<std::optional<StatusOr<OpResult>>> slots;  // per slice
  std::vector<bool> confirmed;
  size_t outstanding = 0;
};

// Shared state of one cross-shard multiget, kept alive by the per-shard callbacks.
struct GatherState {
  std::vector<ShardSlice> slices;
  size_t total_keys = 0;
  LevelEmitter emit;
  std::map<ConsistencyLevel, LevelGather> levels;
  // Latest full value per slice, for reconstructing a shard's confirmation final (§5.2:
  // a confirmation promises the final equals the preliminary this shard already sent).
  std::vector<std::optional<OpResult>> latest_value;

  GatherState(std::vector<ShardSlice> s, size_t keys, const LevelVec& lvls,
              LevelEmitter e)
      : slices(std::move(s)), total_keys(keys), emit(std::move(e)),
        latest_value(slices.size()) {
    for (const ConsistencyLevel level : lvls) {
      LevelGather& gather = levels[level];
      gather.slots.resize(slices.size());
      gather.confirmed.resize(slices.size(), false);
      gather.outstanding = slices.size();
    }
  }
};

// Merges the completed level and reports it through the plan's emitter.
void EmitMergedLevel(GatherState& state, ConsistencyLevel level, const LevelGather& gather) {
  bool all_confirmed = true;
  for (size_t i = 0; i < state.slices.size(); ++i) {
    const StatusOr<OpResult>& slot = *gather.slots[i];
    if (!slot.ok()) {
      // Any failed shard fails the merged level; the pipeline decides whether that is
      // tolerable (preliminary) or terminal (final).
      state.emit(level, slot.status());
      return;
    }
    if (!gather.confirmed[i]) {
      all_confirmed = false;
    }
  }
  if (all_confirmed) {
    // Every shard confirmed its preliminary, so the merged final is the merged
    // preliminary too — surface it as a confirmation and let the pipeline close the
    // Correctable with the value it already delivered.
    state.emit(level, OpResult{}, ResponseKind::kConfirmation);
    return;
  }

  // Unpack every shard's part into request order and repack it as one batched result,
  // so each key keeps the found flag and version its shard reported.
  std::vector<OpResult> by_position(state.total_keys);
  for (size_t i = 0; i < state.slices.size(); ++i) {
    const ShardSlice& slice = state.slices[i];
    // A confirmed shard did not resend its payload; its final is its recorded
    // preliminary.
    const OpResult& result =
        gather.confirmed[i] ? *state.latest_value[i] : gather.slots[i]->value();
    SmallVec<OpResult, 1> entries = UnpackRead(WireShape::kBatch, slice.keys.size(), result);
    for (size_t k = 0; k < slice.keys.size(); ++k) {
      by_position[slice.positions[k]] = std::move(entries[k]);
    }
  }
  state.emit(level, PackRead(WireShape::kBatch, state.total_keys,
                             [&by_position](size_t i) -> std::optional<OpResult> {
                               return std::move(by_position[i]);
                             }));
}

void OnShardResponse(const std::shared_ptr<GatherState>& state, size_t slice_index,
                     StatusOr<OpResult> result, ConsistencyLevel level, ResponseKind kind) {
  auto it = state->levels.find(level);
  if (it == state->levels.end()) {
    return;  // level not part of this request; child declaration checks already warned
  }
  LevelGather& gather = it->second;
  if (gather.slots[slice_index].has_value()) {
    return;  // duplicate emission at this level (streaming shard); first one wins
  }
  if (kind == ResponseKind::kConfirmation && !state->latest_value[slice_index].has_value()) {
    // A confirmation with no recorded preliminary cannot be reconstructed; treat as a
    // shard protocol error rather than fabricating a value.
    result = Status::Internal("shard confirmation arrived before any preliminary value");
    kind = ResponseKind::kValue;
  }
  if (result.ok() && kind == ResponseKind::kValue) {
    state->latest_value[slice_index] = result.value();
  }
  gather.confirmed[slice_index] = (kind == ResponseKind::kConfirmation);
  gather.slots[slice_index] = std::move(result);
  gather.outstanding--;
  if (gather.outstanding == 0) {
    EmitMergedLevel(*state, level, gather);
  }
}

}  // namespace

BindingRouter::BindingRouter(std::vector<std::shared_ptr<Binding>> shards, ShardFn shard_of,
                             uint64_t epoch)
    : shard_of_(std::move(shard_of)), epoch_(epoch) {
  assert(!shards.empty());
  assert(shard_of_ != nullptr);
#ifndef NDEBUG
  const std::vector<ConsistencyLevel> levels = shards.front()->SupportedLevels();
  for (const auto& shard : shards) {
    assert(shard->SupportedLevels() == levels &&
           "router shards must support identical level vectors");
  }
#endif
  shards_.reserve(shards.size());
  for (auto& binding : shards) {
    shards_.push_back(Shard{std::move(binding), std::make_shared<ShardCounters>()});
  }
}

Status BindingRouter::ApplyRing(uint64_t epoch, std::vector<std::shared_ptr<Binding>> shards,
                                ShardFn shard_of) {
  if (epoch <= epoch_) {
    return Status::Conflict("stale ring installation: epoch " + std::to_string(epoch) +
                            " <= current " + std::to_string(epoch_));
  }
  if (shards.empty()) {
    return Status::InvalidArgument("a ring needs at least one shard");
  }
  if (shard_of == nullptr) {
    return Status::InvalidArgument("a ring needs a shard function");
  }
#ifndef NDEBUG
  const std::vector<ConsistencyLevel> levels = shards.front()->SupportedLevels();
  for (const auto& shard : shards) {
    assert(shard->SupportedLevels() == levels &&
           "router shards must support identical level vectors");
  }
#endif
  std::vector<Shard> next;
  next.reserve(shards.size());
  for (auto& binding : shards) {
    // A shard surviving the membership change keeps its counter block: its in-flight
    // invocations must still drain against the slots they occupy.
    std::shared_ptr<ShardCounters> counters;
    for (Shard& old : shards_) {
      if (old.binding == binding) {
        counters = old.counters;
        break;
      }
    }
    if (counters == nullptr) {
      counters = std::make_shared<ShardCounters>();
    }
    counters->retired = false;  // a re-admitted binding rejoins with live accounting
    next.push_back(Shard{std::move(binding), std::move(counters)});
  }
  // Retire the blocks of departed shards atomically with the ring swap: a removed (or
  // crashed) coordinator's in-flight invocations may never emit a terminal, so the
  // outstanding count they'd pin is dropped here; any terminal that *does* arrive late
  // clamps at zero (ShardCounters::Release) instead of underflowing.
  for (Shard& old : shards_) {
    bool survives = false;
    for (const Shard& kept : next) {
      if (kept.counters == old.counters) {
        survives = true;
        break;
      }
    }
    if (!survives) {
      old.counters->retired = true;
      old.counters->outstanding = 0;
      // Fold the departing block's sheds into the cross-epoch aggregate and zero the
      // block, so snapshot totals stay monotone across ring changes without double
      // counting if the same block is ever re-admitted.
      retired_sheds_ += old.counters->sheds;
      old.counters->sheds = 0;
    }
  }
  shards_ = std::move(next);
  shard_of_ = std::move(shard_of);
  epoch_ = epoch;
  return Status::Ok();
}

std::string BindingRouter::Name() const {
  return "router(" + shards_.front().binding->Name() + " x" + std::to_string(shards_.size()) +
         ")";
}

std::vector<ConsistencyLevel> BindingRouter::SupportedLevels() const {
  return shards_.front().binding->SupportedLevels();
}

size_t BindingRouter::ShardIndexFor(const std::string& key) const {
  const size_t index = shard_of_(key);
  assert(index < shards_.size());
  return index < shards_.size() ? index : 0;
}

std::string BindingRouter::CoalescingScope(const Operation& op) const {
  // One scope per (ring epoch, shard), for reads and writes alike: a key's read and its
  // write must land on the same coordinator, so they share one scope string — and a
  // rebalance bumps the epoch, so cohorts formed under the old ring never absorb
  // post-change traffic (the pipeline re-consults this at flush time anyway).
  return std::to_string(epoch_) + ":" + std::to_string(ShardIndexFor(op.key));
}

bool BindingRouter::SupportsBatchedReads() const {
  // Every shard must be able to serve a flushed multiget: capabilities may legitimately
  // differ across heterogeneous backends, and advertising the front shard's alone would
  // queue batches a slower shard then rejects.
  for (const auto& shard : shards_) {
    if (!shard.binding->SupportsBatchedReads()) {
      return false;
    }
  }
  return true;
}

bool BindingRouter::SupportsBatchedWrites() const {
  for (const auto& shard : shards_) {
    if (!shard.binding->SupportsBatchedWrites()) {
      return false;
    }
  }
  return true;
}

RouterLoadSnapshot BindingRouter::LoadSnapshot() const {
  // Single-threaded with ApplyRing (both run on the client's loop), so reading epoch,
  // shard rows, and the retired aggregate in one call is consistent by construction:
  // every row belongs to the epoch reported.
  RouterLoadSnapshot snapshot;
  snapshot.epoch = epoch_;
  snapshot.retired_sheds = retired_sheds_;
  snapshot.shards.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    snapshot.shards.push_back(
        RouterLoadSnapshot::Shard{shard.counters->outstanding, shard.counters->sheds});
  }
  return snapshot;
}

bool BindingRouter::ShedIfOverloaded(size_t shard_index) {
  if (queue_limit_ == 0) {
    return false;
  }
  ShardCounters& counters = *shards_[shard_index].counters;
  if (counters.outstanding < queue_limit_) {
    return false;
  }
  counters.sheds++;
  return true;
}

// The outstanding-slot accounting of one plan on one shard, in one pooled block: the
// shard's counters, the done flag, and per wrapped step the binding's own fetcher plus
// the emitter the pipeline ran that step with. The wrappers capture one pointer to it,
// so they stay inside their InlineFunction buffers and copying them (store clients copy
// their emitter into every response closure) allocates nothing. A plan's fetchers run
// once each.
struct BindingRouter::OutstandingTracker {
  struct Step {
    LevelFetcher inner;
    std::optional<LevelEmitter> emit;  // set when the step runs
  };

  // The emitter a tracked step hands its binding fetcher: the first emission at the
  // strongest level (value, confirmation or error) is the invocation's terminal response
  // and releases the slot; every emission then goes on to the pipeline.
  struct Emit {
    std::shared_ptr<OutstandingTracker> tracker;
    size_t step;

    void operator()(ConsistencyLevel level, StatusOr<OpResult>&& result,
                    ResponseKind kind) const {
      if (level == tracker->strongest && !tracker->done) {
        tracker->done = true;
        tracker->counters->Release();
      }
      (*tracker->steps[step].emit)(level, std::move(result), kind);
    }
  };

  // The fetcher that replaces a step covering the strongest level.
  struct Fetch {
    std::shared_ptr<OutstandingTracker> tracker;
    size_t step;

    void operator()(const Operation& op, LevelEmitter emit) const {
      Step& wrapped = tracker->steps[step];
      wrapped.emit.emplace(std::move(emit));
      wrapped.inner(op, LevelEmitter(Emit{tracker, step}));
    }
  };

  OutstandingTracker(std::shared_ptr<ShardCounters> counters, ConsistencyLevel strongest)
      : counters(std::move(counters)), strongest(strongest) {}

  std::shared_ptr<ShardCounters> counters;
  ConsistencyLevel strongest;
  bool done = false;
  SmallVec<Step, 1> steps;
};

void BindingRouter::TrackOutstanding(InvocationPlan& plan, ConsistencyLevel strongest,
                                     const std::shared_ptr<ShardCounters>& counters) {
  static_assert(LevelFetcher::StoresInline<OutstandingTracker::Fetch>(),
                "the router's tracked fetcher must not allocate");
  static_assert(LevelEmitter::Sink::StoresInline<OutstandingTracker::Emit>(),
                "the router's tracked emitter must not allocate");
  // The slot is claimed only when a step covering the strongest level was actually
  // wrapped. A plan covering no such step is rejected by the pipeline before any step
  // runs; claiming a slot for it up front would leak the slot forever.
  std::shared_ptr<OutstandingTracker> tracker;
  for (FetchStep& step : plan.steps) {
    if (std::find(step.levels.begin(), step.levels.end(), strongest) == step.levels.end()) {
      continue;
    }
    if (tracker == nullptr) {
      tracker = PooledMakeShared<OutstandingTracker>(counters, strongest);
    }
    const size_t index = tracker->steps.size();
    tracker->steps.push_back(OutstandingTracker::Step{std::move(step.fetch), std::nullopt});
    step.fetch = OutstandingTracker::Fetch{tracker, index};
  }
  if (tracker != nullptr) {
    counters->outstanding++;
  }
}

InvocationPlan BindingRouter::PlanOnShard(size_t shard, const Operation& op,
                                          const LevelSet& levels, const char* what) {
  if (ShedIfOverloaded(shard)) {
    return InvocationPlan::Rejected(Status::Overloaded(
        "shard " + std::to_string(shard) + " is over its queue limit; retry " + what));
  }
  InvocationPlan plan = shards_[shard].binding->PlanInvocation(op, levels);
  if (plan.reject.ok()) {
    TrackOutstanding(plan, levels.strongest(), shards_[shard].counters);
  }
  return plan;
}

InvocationPlan BindingRouter::PlanInvocation(const Operation& op, const LevelSet& levels) {
  if (op.type == OpType::kMultiPut) {
    // A batched write flush must already be shard-local (the pipeline queues writes per
    // coalescing scope and regroups on flush). Enforce it: spanning shards would apply
    // half a batch on the wrong coordinator.
    if (op.keys.empty()) {
      return InvocationPlan::Rejected(
          Status::InvalidArgument("multiput through the router needs at least one key"));
    }
    const size_t shard = ShardIndexFor(op.keys.front());
    for (const std::string& key : op.keys) {
      if (ShardIndexFor(key) != shard) {
        return InvocationPlan::Rejected(Status::InvalidArgument(
            "batched writes must not cross shard boundaries (key '" + key +
            "' is not on shard " + std::to_string(shard) + ")"));
      }
    }
    return PlanOnShard(shard, op, levels, "the batch");
  }
  if (op.type != OpType::kMultiGet) {
    // Single-key operations (and queue ops, routed by queue name) delegate wholesale:
    // the owning shard's plan *is* the router's plan, so refresh hooks, span steps, and
    // confirmation behaviour pass through untouched.
    return PlanOnShard(ShardIndexFor(op.key), op, levels, "the invocation");
  }

  if (op.keys.empty()) {
    return InvocationPlan::Rejected(
        Status::InvalidArgument("multiget through the router needs at least one key"));
  }
  // A multiget that sits on one shard (every flushed read cohort, barring a ring change
  // mid-window) delegates wholesale, like a single-key read: no slices are built.
  const size_t first_shard = ShardIndexFor(op.keys.front());
  if (std::all_of(op.keys.begin() + 1, op.keys.end(), [&](const std::string& key) {
        return ShardIndexFor(key) == first_shard;
      })) {
    return PlanOnShard(first_shard, op, levels, "the batch");
  }
  std::vector<ShardSlice> slices = SliceByShard(*this, op.keys);

  // Admission across every involved shard: one overloaded coordinator sheds the whole
  // scatter-gather (its merged final could not complete anyway).
  for (const ShardSlice& slice : slices) {
    if (ShedIfOverloaded(slice.shard)) {
      return InvocationPlan::Rejected(Status::Overloaded(
          "shard " + std::to_string(slice.shard) +
          " is over its queue limit; retry the multiget"));
    }
  }

  // Cross-shard scatter-gather: one span step covering every requested level. Each
  // shard runs its own sub-plan (via SubmitOperation, the raw response path, which also
  // applies that shard's refresh hook); the gather emits the merged view for a level
  // once all shards reported at it, keeping the merged sequence monotone. The involved
  // shards' bindings and counters are captured by value, so a mid-flight ring change
  // neither frees a child nor mis-indexes the accounting.
  std::vector<std::shared_ptr<Binding>> involved;
  std::vector<std::shared_ptr<ShardCounters>> involved_counters;
  involved.reserve(slices.size());
  involved_counters.reserve(slices.size());
  for (const ShardSlice& slice : slices) {
    involved.push_back(shards_[slice.shard].binding);
    involved_counters.push_back(shards_[slice.shard].counters);
  }
  const ConsistencyLevel strongest = levels.strongest();

  InvocationPlan plan;
  const size_t total_keys = op.keys.size();
  plan.AddSpan(levels.levels(),
               [involved, involved_counters, strongest, slices = std::move(slices), total_keys,
                request_levels = levels.levels()](const Operation& read, LevelEmitter emit) {
                 (void)read;  // sub-operations are rebuilt from the captured slices
                 // Slots are claimed here, when the scatter actually launches, and
                 // released together on the merged strongest-level emission.
                 for (const auto& counters : involved_counters) {
                   counters->outstanding++;
                 }
                 auto done = std::make_shared<bool>(false);
                 LevelEmitter tracked(
                     [emit = std::move(emit), involved_counters, strongest, done](
                         ConsistencyLevel level, StatusOr<OpResult> result,
                         ResponseKind kind) {
                       if (level == strongest && !*done) {
                         *done = true;
                         for (const auto& counters : involved_counters) {
                           counters->Release();
                         }
                       }
                       emit(level, std::move(result), kind);
                     });
                 auto state = std::make_shared<GatherState>(slices, total_keys,
                                                            request_levels, std::move(tracked));
                 for (size_t i = 0; i < state->slices.size(); ++i) {
                   const ShardSlice& slice = state->slices[i];
                   involved[i]->SubmitOperation(
                       Operation::MultiGet(slice.keys), request_levels,
                       [state, i](StatusOr<OpResult> result, ConsistencyLevel level,
                                  ResponseKind kind) {
                         OnShardResponse(state, i, std::move(result), level, kind);
                       });
                 }
               });
  return plan;
}

}  // namespace icg
