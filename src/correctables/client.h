// CorrectableClient: the application-facing library entry point (§3.2).
//
//   invokeWeak(op)   -> single final view at the weakest supported level
//   invokeStrong(op) -> single final view at the strongest supported level
//   invoke(op)       -> incremental views at every supported level (ICG)
//   invoke(op, lvls) -> incremental views at a chosen ascending subset of levels
//
// The client creates Correctables and counts invocation kinds; all per-level semantics
// (view translation, monotonicity, confirmations, timeouts, read coalescing) are owned
// by the shared InvocationPipeline it drives.
#ifndef ICG_CORRECTABLES_CLIENT_H_
#define ICG_CORRECTABLES_CLIENT_H_

#include <memory>
#include <vector>

#include "src/correctables/binding.h"
#include "src/correctables/correctable.h"
#include "src/correctables/invocation_pipeline.h"
#include "src/correctables/operation.h"
#include "src/sim/event_loop.h"

namespace icg {

class CorrectableClient {
 public:
  // `loop` may be null when the binding is synchronous (unit tests); timeouts then
  // cannot be armed and view timestamps read as zero.
  explicit CorrectableClient(std::shared_ptr<Binding> binding, EventLoop* loop = nullptr);

  // Fails invocations whose final view has not arrived within `timeout` (0 disables).
  void SetTimeout(SimDuration timeout) { pipeline_.SetTimeout(timeout); }

  // Cross-tick batching: with batch_window > 0, reads and writes accumulate per
  // coalescing scope for up to one window and flush as batched store submissions.
  // batch_window == 0 (the default) leaves only same-tick read coalescing.
  void SetBatchConfig(const BatchConfig& config) { pipeline_.SetBatchConfig(config); }
  const BatchConfig& batch_config() const { return pipeline_.batch_config(); }
  // Flushes every pending batch cohort immediately (explicit barrier / teardown).
  void FlushPendingBatches() { pipeline_.FlushPendingBatches(); }

  Correctable<OpResult> InvokeWeak(Operation op);
  Correctable<OpResult> InvokeStrong(Operation op);
  // All supported levels.
  Correctable<OpResult> Invoke(Operation op);
  // A chosen subset; must be ascending and supported, else the result is already failed
  // with INVALID_ARGUMENT.
  Correctable<OpResult> Invoke(Operation op, LevelVec levels);

  const ClientStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ClientStats{}; }

  const Binding& binding() const { return *binding_; }
  EventLoop* loop() const { return loop_; }

 private:
  Correctable<OpResult> Submit(Operation op, LevelVec levels);

  std::shared_ptr<Binding> binding_;
  EventLoop* loop_;
  // Cached once (the Binding contract declares the set stable): SupportedLevels()
  // returns a fresh vector per call, which would put an allocation on every invoke.
  std::vector<ConsistencyLevel> supported_levels_;
  ClientStats stats_;
  InvocationPipeline pipeline_;  // must follow binding_ and stats_ (init order)
};

}  // namespace icg

#endif  // ICG_CORRECTABLES_CLIENT_H_
