#include "src/correctables/invocation_pipeline.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace icg {
namespace {

bool StepDeclares(const LevelVec& declared, ConsistencyLevel level) {
  return std::find(declared.begin(), declared.end(), level) != declared.end();
}

// Coalescing key: operations join the same batch only if key, level set, and the
// binding's routing scope all match (different level sets need different view
// sequences; different scopes mean different store endpoints, so sharing a round-trip
// would send one waiter's read to the wrong coordinator). Builds into `out` so a
// persistent scratch buffer absorbs the construction. Levels take one byte each, so a
// short key under a short scope stays within the 15-byte SSO buffer of the copies the
// open-batches map keeps.
void BatchKeyInto(std::string& out, const Binding& binding, const Operation& op,
                  const LevelVec& levels) {
  out.clear();
  out += binding.CoalescingScope(op);
  out.push_back('\0');
  out += op.key;
  out.push_back('\0');
  for (const ConsistencyLevel level : levels) {
    out.push_back(static_cast<char>('0' + static_cast<int>(level)));
  }
}

// A plan whose steps never declare the strongest requested level could not possibly
// close the Correctable; catch the binding bug up front instead of hanging forever.
bool PlanCoversFinal(const InvocationPlan& plan, ConsistencyLevel strongest) {
  for (const FetchStep& step : plan.steps) {
    if (StepDeclares(step.levels, strongest)) {
      return true;
    }
  }
  return false;
}

// Shared per-plan execution state, kept alive by the step emitters.
struct PlanRun {
  std::shared_ptr<const Operation> op;
  RefreshHook refresh;
  // Points at the pipeline's cached name (pipeline path) or at owned_name (raw
  // SubmitOperation path): referenced only by the plan-coverage error, so the hot path
  // never constructs a name string.
  const std::string* binding_name = nullptr;
  std::string owned_name;
  // The client's counters on the pipeline path; null on the raw SubmitOperation path,
  // which has no client and drops undeclared emissions silently.
  ClientStats* stats = nullptr;
  LevelEmitter::Sink sink;  // receives declaration-checked, refresh-applied emissions
};

// The one definition of "run a plan", shared by the stateful pipeline and the raw
// Binding::SubmitOperation path: runs every fetch step, enforcing the step's declared
// levels (an emission at an undeclared level is a binding bug and is dropped) and
// applying the plan's write-through refresh hook before forwarding to the sink.
void RunPlanSteps(std::shared_ptr<PlanRun> run, SmallVec<FetchStep, 2>& steps) {
  for (FetchStep& step : steps) {
    LevelEmitter emit([run, declared = std::move(step.levels)](
                          ConsistencyLevel level, StatusOr<OpResult>&& result,
                          ResponseKind kind) {
      if (!StepDeclares(declared, level)) {
        if (run->stats != nullptr) {
          run->stats->dropped_emissions++;
        }
        return;
      }
      if (run->refresh && result.ok() && kind == ResponseKind::kValue) {
        run->refresh(*run->op, result.value(), level);
      }
      run->sink(level, std::move(result), kind);
    });
    step.fetch(*run->op, std::move(emit));
  }
}

// The one start of a plan, shared by the pipeline's Launch and the raw
// Binding::SubmitOperation path. `run` arrives with its operation, binding name and sink
// set. A rejected plan, or one whose steps never declare the strongest requested level,
// fails at that level through the sink; otherwise the plan's refresh hook joins the run
// and its steps start.
void StartPlan(InvocationPlan& plan, ConsistencyLevel strongest, std::shared_ptr<PlanRun> run) {
  if (!plan.reject.ok()) {
    run->sink(strongest, std::move(plan.reject), ResponseKind::kValue);
    return;
  }
  if (!PlanCoversFinal(plan, strongest)) {
    run->sink(strongest,
              Status::Internal("plan from binding '" + *run->binding_name +
                               "' does not cover the strongest requested level"),
              ResponseKind::kValue);
    return;
  }
  run->refresh = std::move(plan.refresh);
  RunPlanSteps(std::move(run), plan.steps);
}

}  // namespace

InvocationPipeline::InvocationPipeline(Binding* binding, EventLoop* loop, ClientStats* stats)
    : binding_(binding), loop_(loop), stats_(stats),
      supported_levels_(binding->SupportedLevels()),
      binding_name_(binding->Name()),
      scheduler_(loop, [this](BatchScheduler::Cohort& cohort) { OnCohortFlush(cohort); }) {
  assert(binding_ != nullptr);
  assert(stats_ != nullptr);
}

Correctable<OpResult> InvocationPipeline::Submit(Operation op, LevelVec levels) {
  if (!ValidLevelSelection(levels, supported_levels_)) {
    stats_->errors++;
    return Correctable<OpResult>::Failed(Status::InvalidArgument(
        "invalid consistency level selection " + LevelsToString(levels) + " for binding " +
        binding_->Name()));
  }

  // Stamp writes with the client's monotone clock (loop-less clients keep the legacy
  // coordinator-stamped behaviour): program order per writer survives batching windows
  // and live ring changes because the stamp, not the apply instant, decides LWW.
  if (op.type == OpType::kPut && loop_ != nullptr) {
    last_write_stamp_ = std::max<SimTime>(loop_->Now(), last_write_stamp_ + 1);
    op.timestamp = last_write_stamp_;
  }

  auto inv = PooledMakeShared<Invocation>(loop_, levels.back());
  auto correctable = inv->source.GetCorrectable();
  // Arm the timeout before launching so even a binding that never emits is covered.
  ArmTimeout(inv);

  // Cross-tick batching: with a window open, reads and writes queue per coalescing
  // scope — writes use the very same scope key as reads (Binding::CoalescingScope), so
  // a routed write can never batch across shard boundaries — and flush as one batched
  // store submission. Bindings that cannot serve multiget/multiput launch every
  // operation on its own.
  if (scheduler_.enabled()) {
    const bool batch_read = op.type == OpType::kGet && binding_->SupportsBatchedReads();
    const bool batch_write = op.type == OpType::kPut && binding_->SupportsBatchedWrites();
    if (batch_read || batch_write) {
      std::string scope = binding_->CoalescingScope(op);
      scheduler_.Admit(batch_read, std::move(scope), levels, std::move(op), inv);
      return correctable;
    }
  }

  const bool coalescable = loop_ != nullptr && op.type == OpType::kGet;
  if (coalescable) {
    // Joinability ends with the tick: once virtual time advances, every remaining entry
    // (e.g. a batch whose final response was lost) is dead weight — drop them all so the
    // map never outgrows one tick's worth of distinct reads. In-flight batches keep
    // living through the shared_ptrs captured in their emitters.
    if (loop_->Now() != batch_tick_) {
      batch_tick_ = loop_->Now();
      open_batches_.clear();
    }
    BatchKeyInto(scratch_key_, *binding_, op, levels);
    auto it = open_batches_.find(scratch_key_);
    if (it != open_batches_.end()) {
      const std::shared_ptr<Batch>& batch = it->second;
      if (!batch->done) {
        // Piggyback on the in-flight round-trip: no new store request is issued.
        stats_->coalesced_reads++;
        Waiters& waiters = batch->entries.front();
        if (waiters.size() == 1) {
          stats_->batched_invocations++;
        }
        waiters.push_back(inv);
        // Catch up on anything the batch already surfaced this tick (synchronous
        // levels, e.g. the client cache, resolve during the leader's submission).
        for (const Batch::Emission& e : batch->history) {
          Deliver(*inv, e.level, e.result, e.kind);
        }
        return correctable;
      }
      open_batches_.erase(it);
    }
  }

  auto batch = PooledMakeShared<Batch>();
  batch->op = std::move(op);
  batch->level_set = LevelSet(std::move(levels));
  batch->coalescable = coalescable;
  batch->tick = batch_tick_;
  batch->entries.emplace_back().push_back(std::move(inv));
  if (coalescable) {
    batch->map_key = scratch_key_;  // short keys stay in SSO storage
    open_batches_[batch->map_key] = batch;
  }
  Launch(batch);
  return correctable;
}

void InvocationPipeline::ArmTimeout(const std::shared_ptr<Invocation>& inv) {
  if (timeout_ <= 0 || loop_ == nullptr) {
    return;
  }
  ClientStats* stats = stats_;
  inv->timer = loop_->Schedule(timeout_, [stats, inv]() {
    if (inv->source.Fail(Status::Timeout("no final view within timeout"))) {
      stats->timeouts++;
    }
  });
}

void InvocationPipeline::CancelTimeout(Invocation& inv) {
  if (inv.timer != 0 && loop_ != nullptr) {
    loop_->Cancel(inv.timer);
    inv.timer = 0;
  }
}

void InvocationPipeline::Launch(const std::shared_ptr<Batch>& batch) {
  InvocationPlan plan = binding_->PlanInvocation(batch->op, batch->level_set);
  auto run = PooledMakeShared<PlanRun>();
  // Aliasing constructor: the run shares the batch's operation instead of copying it.
  run->op = std::shared_ptr<const Operation>(batch, &batch->op);
  run->binding_name = &binding_name_;
  run->stats = stats_;
  run->sink = [this, batch](ConsistencyLevel level, StatusOr<OpResult>&& result,
                            ResponseKind kind) {
    OnEmission(batch, level, std::move(result), kind);
  };
  StartPlan(plan, batch->level_set.strongest(), std::move(run));
}

void InvocationPipeline::OnEmission(const std::shared_ptr<Batch>& batch,
                                    ConsistencyLevel level, StatusOr<OpResult> result,
                                    ResponseKind kind) {
  if (!batch->level_set.Contains(level)) {
    stats_->dropped_emissions++;
    return;
  }
  if (level == batch->level_set.strongest()) {
    batch->done = true;
    if (!batch->map_key.empty()) {
      auto it = open_batches_.find(batch->map_key);
      if (it != open_batches_.end() && it->second == batch) {
        open_batches_.erase(it);
      }
      batch->map_key.clear();
    }
  }
  // Record for same-tick late joiners. The final emission itself is never recorded:
  // setting `done` above just made joining impossible, so nobody could replay it — and
  // streaming tails (e.g. blockchain confirmations) stop accumulating the same way.
  // Neither is an emission after the batch's own tick: the open-batches map only holds
  // batches of the current tick, so no later joiner can find this one.
  if (batch->coalescable && !batch->done && loop_->Now() == batch->tick) {
    batch->history.push_back(Batch::Emission{level, result, kind});
  }
  // A one-entry batch hands every waiter the whole emission, as do errors and
  // confirmations (a confirmed batch's waiters each already hold their own preliminary).
  const size_t count = batch->entries.size();
  if (count == 1 || !result.ok() || kind == ResponseKind::kConfirmation) {
    for (size_t e = 0; e + 1 < count; ++e) {
      DeliverToEntry(batch->entries[e], level, result, kind);
    }
    DeliverToEntry(batch->entries[count - 1], level, std::move(result), kind);
    return;
  }
  // A multi-entry value is split per entry: each waiter sees what a lone request for its
  // key (or write) would have returned.
  SmallVec<OpResult, 1> parts =
      batch->op.type == OpType::kMultiGet
          ? UnpackRead(WireShape::kBatch, count, result.value())
          : UnpackWriteAck(WireShape::kBatch, count, result.value());
  for (size_t e = 0; e < count; ++e) {
    DeliverToEntry(batch->entries[e], level, std::move(parts[e]), kind);
  }
}

void InvocationPipeline::DeliverToEntry(const Waiters& waiters, ConsistencyLevel level,
                                        StatusOr<OpResult> result, ResponseKind kind) {
  // A callback may submit a same-tick read that joins a coalescable batch mid-loop; such
  // joiners already received this emission through the history replay, so the bound must
  // not move. Their push_back may reallocate the list, but never moves an Invocation, so
  // each waiter is dereferenced afresh by index.
  const size_t present = waiters.size();
  for (size_t i = 0; i + 1 < present; ++i) {
    Deliver(*waiters[i], level, result, kind);
  }
  Deliver(*waiters[present - 1], level, std::move(result), kind);
}

void InvocationPipeline::OnCohortFlush(BatchScheduler::Cohort& cohort) {
  // Re-consult the binding's scope per queued operation: a ring rebalance may have moved
  // keys while the window was open. With no move — every operation still in the scope
  // it was admitted under — the cohort flushes whole.
  const bool unmoved = std::all_of(cohort.ops.begin(), cohort.ops.end(),
                                   [&](const BatchScheduler::Pending& pending) {
                                     return binding_->CoalescingScope(pending.op) ==
                                            cohort.scope;
                                   });
  if (unmoved) {
    FlushGroup(cohort.is_read, cohort.levels, cohort.ops);
    return;
  }
  // Operations whose scope changed flush in their own re-routed group, so a batched
  // submission never spans scopes. Groups launch in first-arrival order.
  std::map<std::string, std::vector<BatchScheduler::Pending>> groups;
  std::vector<std::string> order;
  for (auto& pending : cohort.ops) {
    std::string scope = binding_->CoalescingScope(pending.op);
    auto [it, inserted] = groups.emplace(std::move(scope), std::vector<BatchScheduler::Pending>());
    if (inserted) {
      order.push_back(it->first);
    }
    it->second.push_back(std::move(pending));
  }
  for (const std::string& scope : order) {
    FlushGroup(cohort.is_read, cohort.levels, groups[scope]);
  }
}

void InvocationPipeline::FlushGroup(bool is_read, const LevelVec& levels,
                                    std::vector<BatchScheduler::Pending>& ops) {
  if (ops.size() > 1) {
    stats_->cross_tick_batches++;
    if (is_read) {
      stats_->batched_invocations++;
      stats_->coalesced_reads += static_cast<int64_t>(ops.size()) - 1;
    } else {
      stats_->batched_writes += static_cast<int64_t>(ops.size());
    }
  }
  auto batch = PooledMakeShared<Batch>();
  batch->level_set = LevelSet(levels);
  batch->entries.reserve(ops.size());
  // Reads get one entry per distinct key, shared by its waiters; writes one per write, in
  // arrival order — program order, since a multiput applies its entries in order. A
  // cohort holds a few distinct keys, so a linear scan over the entries opened so far
  // finds a read's entry.
  SmallVec<size_t, 4> first_op;  // per entry: the index in `ops` that opened it
  for (size_t i = 0; i < ops.size(); ++i) {
    size_t entry = 0;
    if (is_read) {
      while (entry < first_op.size() && ops[first_op[entry]].op.key != ops[i].op.key) {
        entry++;
      }
    } else {
      entry = first_op.size();
    }
    if (entry == first_op.size()) {
      first_op.push_back(i);
      batch->entries.emplace_back();
    }
    batch->entries[entry].push_back(
        std::static_pointer_cast<Invocation>(std::move(ops[i].waiter)));
  }
  if (first_op.size() == 1) {
    // A one-entry cohort goes out as the plain kGet/kPut it was submitted as.
    batch->op = std::move(ops.front().op);
  } else if (is_read) {
    std::vector<std::string> keys;
    keys.reserve(first_op.size());
    for (const size_t i : first_op) {
      keys.push_back(std::move(ops[i].op.key));
    }
    batch->op = Operation::MultiGet(std::move(keys));
  } else {
    Operation& put = batch->op;
    put.type = OpType::kMultiPut;
    put.keys.reserve(ops.size());
    put.values.reserve(ops.size());
    put.timestamps.reserve(ops.size());
    for (auto& pending : ops) {
      put.keys.push_back(std::move(pending.op.key));
      put.values.push_back(std::move(pending.op.value));
      put.timestamps.push_back(pending.op.timestamp);  // submission-time stamps ride along
    }
  }
  Launch(batch);
}

void InvocationPipeline::Deliver(Invocation& inv, ConsistencyLevel level,
                                 StatusOr<OpResult> result, ResponseKind kind) {
  const bool is_final_level = (level == inv.strongest);
  if (!result.ok()) {
    // Errors at preliminary levels are tolerated: a stronger view may still arrive.
    if (!is_final_level) {
      stats_->preliminary_errors++;
      return;
    }
    if (inv.source.state() != CorrectableState::kUpdating) {
      return;
    }
    stats_->errors++;
    if (result.status().code() == StatusCode::kOverloaded) {
      stats_->overload_sheds++;  // backpressure shed: retryable by contract
    }
    CancelTimeout(inv);
    inv.source.Fail(result.status());
    return;
  }

  if (!is_final_level) {
    if (inv.source.Update(std::move(result).value(), level)) {
      stats_->views_delivered++;
    } else {
      stats_->stale_views_dropped++;
    }
    return;
  }

  if (inv.source.state() != CorrectableState::kUpdating) {
    return;  // duplicate finals (streaming levels after close) are ignored
  }
  CancelTimeout(inv);
  if (kind == ResponseKind::kConfirmation) {
    stats_->confirmations++;
    if (inv.source.CloseConfirmed(level)) {
      stats_->views_delivered++;
    }
    return;
  }
  // A full final: if a preliminary was delivered and differs, record the divergence
  // (this is the client-observable misspeculation signal of Figure 7).
  if (inv.source.HasView() && !(inv.source.LatestView().value == result.value())) {
    stats_->divergences++;
  }
  if (inv.source.Close(std::move(result).value(), level)) {
    stats_->views_delivered++;
  }
}

// Binding::SubmitOperation lives here rather than in a binding translation unit so the
// raw response path and the pipeline share StartPlan and RunPlanSteps, the one
// definition of "run a plan" (rejection, coverage validation, declaration enforcement,
// refresh write-through).
void Binding::SubmitOperation(const Operation& op, const LevelVec& levels,
                              ResponseCallback callback) {
  LevelSet set(levels);
  InvocationPlan plan = PlanInvocation(op, set);
  auto run = PooledMakeShared<PlanRun>();
  run->op = std::make_shared<const Operation>(op);
  run->owned_name = Name();
  run->binding_name = &run->owned_name;
  run->sink = [callback](ConsistencyLevel level, StatusOr<OpResult>&& result,
                         ResponseKind kind) {
    callback(std::move(result), level, kind);
  };
  StartPlan(plan, set.strongest(), std::move(run));
}

}  // namespace icg
