#include "src/bindings/zookeeper_binding.h"

namespace icg {

InvocationPlan ZooKeeperBinding::PlanInvocation(const Operation& op, const LevelSet& levels) {
  const bool weak = levels.Contains(ConsistencyLevel::kWeak);
  const bool strong = levels.Contains(ConsistencyLevel::kStrong);
  InvocationPlan plan;
  switch (op.type) {
    case OpType::kEnqueue:
    case OpType::kDequeue:
      plan.AddSpan(levels.levels(), [client = client_, weak, strong](const Operation& qop,
                                                                     LevelEmitter emit) {
        if (!strong) {
          // A weak-only queue write still has to commit (there is no meaningful
          // "eventual" enqueue in ZooKeeper): issue the ICG path but surface only the
          // fast local view; the commit lands in the background.
          auto weak_only = [emit](StatusOr<OpResult> result, bool is_final,
                                  ResponseKind kind) {
            if (!is_final) {
              emit(ConsistencyLevel::kWeak, std::move(result), kind);
            }
          };
          if (qop.type == OpType::kEnqueue) {
            client->Enqueue(qop.key, qop.value, /*icg=*/true, weak_only);
          } else {
            client->Dequeue(qop.key, /*icg=*/true, weak_only);
          }
          return;
        }
        const bool icg = weak && strong;  // CZK fast-path preliminary + atomic final
        auto forward = [emit](StatusOr<OpResult> result, bool is_final, ResponseKind kind) {
          emit(is_final ? ConsistencyLevel::kStrong : ConsistencyLevel::kWeak,
               std::move(result), kind);
        };
        static_assert(ZabResponseFn::StoresInline<decltype(forward)>(),
                      "a queue op's response adapter must not allocate");
        if (qop.type == OpType::kEnqueue) {
          client->Enqueue(qop.key, qop.value, icg, forward);
        } else {
          client->Dequeue(qop.key, icg, forward);
        }
      });
      return plan;
    case OpType::kPeek:
      // Local head read at the session server; inherently weak.
      if (strong) {
        return InvocationPlan::Rejected(
            Status::InvalidArgument("peek is only available at WEAK consistency"));
      }
      plan.AddStep(ConsistencyLevel::kWeak, [client = client_](const Operation& qop,
                                                               LevelEmitter emit) {
        client->Peek(qop.key, [emit](StatusOr<OpResult> result, bool, ResponseKind kind) {
          emit(ConsistencyLevel::kWeak, std::move(result), kind);
        });
      });
      return plan;
    default:
      return InvocationPlan::Rejected(
          Status::InvalidArgument("zookeeper binding supports queue operations only"));
  }
}

}  // namespace icg
