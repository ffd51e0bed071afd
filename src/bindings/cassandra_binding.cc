#include "src/bindings/cassandra_binding.h"

namespace icg {

InvocationPlan CassandraBinding::PlanInvocation(const Operation& op, const LevelSet& levels) {
  InvocationPlan plan;
  switch (op.type) {
    case OpType::kGet:
    case OpType::kMultiGet: {
      const bool weak = levels.Contains(ConsistencyLevel::kWeak);
      const bool strong = levels.Contains(ConsistencyLevel::kStrong);
      ReadOptions options;
      options.read_quorum = strong ? config_.strong_read_quorum : 1;
      options.want_preliminary = weak && strong;  // the single-request ICG path
      options.confirmations = config_.confirmations && weak && strong;
      // One round-trip covers the whole span: a non-final response is always the WEAK
      // view; the final response lands at the strongest requested level.
      plan.AddSpan(levels.levels(),
                   [client = client_, options, strongest = levels.strongest()](
                       const Operation& read, LevelEmitter emit) {
                     auto forward = [emit, strongest](StatusOr<OpResult> result, bool is_final,
                                                      ResponseKind kind) {
                       emit(is_final ? strongest : ConsistencyLevel::kWeak, std::move(result),
                            kind);
                     };
                     client->Read(ReadRequest::Of(read), options, forward);
                   });
      return plan;
    }
    case OpType::kPut:
    case OpType::kMultiPut:
      // Writes use W=1 (§6.2.1): a single acknowledgement, reported at the strongest
      // requested level. A batched flush applies every entry in order (preserving per-key
      // program order) and still acknowledges once.
      plan.AddStep(levels.strongest(), [client = client_, level = levels.strongest()](
                                           const Operation& put, LevelEmitter emit) {
        client->Write(WriteRequest::Of(put),
                      [emit, level](StatusOr<OpResult> result, bool, ResponseKind kind) {
                        emit(level, std::move(result), kind);
                      });
      });
      return plan;
    default:
      return InvocationPlan::Rejected(
          Status::InvalidArgument("cassandra binding supports key-value operations only"));
  }
}

}  // namespace icg
