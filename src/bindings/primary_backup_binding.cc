#include "src/bindings/primary_backup_binding.h"

namespace icg {

InvocationPlan PrimaryBackupBinding::PlanInvocation(const Operation& op,
                                                    const LevelSet& levels) {
  InvocationPlan plan;
  switch (op.type) {
    case OpType::kGet:
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
      return plan;
    case OpType::kPut:
      plan.AddStep(levels.strongest(), [client = client_, level = levels.strongest()](
                                           const Operation& put, LevelEmitter emit) {
        client->Write(WriteRequest::Of(put), EmitAt(std::move(emit), level));
      });
      return plan;
    default:
      return InvocationPlan::Rejected(
          Status::InvalidArgument("primary-backup binding supports key-value operations only"));
  }
}

}  // namespace icg
