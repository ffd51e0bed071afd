#include "src/bindings/cached_pb_binding.h"

#include "src/bindings/cache_refresh.h"

namespace icg {

InvocationPlan CachedPbBinding::PlanInvocation(const Operation& op, const LevelSet& levels) {
  InvocationPlan plan;
  switch (op.type) {
    case OpType::kGet:
    case OpType::kMultiGet:
      if (levels.Contains(ConsistencyLevel::kCache)) {
        // Cache view: resolves synchronously. A miss is reported as found=false at the
        // CACHE level so the caller still sees one view per requested level.
        plan.AddStep(ConsistencyLevel::kCache,
                     [cache = cache_](const Operation& get, LevelEmitter emit) {
                       emit(ConsistencyLevel::kCache, CacheLookup(cache, get));
                     });
      }
      if (levels.Contains(ConsistencyLevel::kWeak)) {
        plan.AddStep(ConsistencyLevel::kWeak,
                     [client = client_](const Operation& get, LevelEmitter emit) {
                       client->ReadWeak(ReadRequest::Of(get),
                                        EmitAt(std::move(emit), ConsistencyLevel::kWeak));
                     });
      }
      if (levels.Contains(ConsistencyLevel::kStrong)) {
        plan.AddStep(ConsistencyLevel::kStrong,
                     [client = client_](const Operation& get, LevelEmitter emit) {
                       client->ReadStrong(ReadRequest::Of(get),
                                          EmitAt(std::move(emit), ConsistencyLevel::kStrong));
                     });
      }
      plan.refresh = CacheReadRefresh(cache_);
      return plan;
    case OpType::kPut:
    case OpType::kMultiPut:
      // A batched flush: the primary applies the entries in order and acknowledges once.
      plan.AddStep(levels.strongest(), [client = client_, level = levels.strongest()](
                                           const Operation& put, LevelEmitter emit) {
        client->Write(WriteRequest::Of(put), EmitAt(std::move(emit), level));
      });
      // Write-through: the pipeline refreshes the cache only when the store acknowledges.
      plan.refresh = CacheWriteRefresh(cache_);
      return plan;
    default:
      return InvocationPlan::Rejected(
          Status::InvalidArgument("cached-pb binding supports key-value operations only"));
  }
}

}  // namespace icg
