// InvocationPipeline: the shared per-invocation engine behind every binding.
//
// The paper's claim is that incremental consistency guarantees are *one* abstraction
// regardless of the storage stack behind it. The pipeline is where that abstraction's
// semantics live, so concrete bindings stay thin level providers:
//
//   * level-set validation and weakest-first delivery;
//   * out-of-order suppression (a weaker view arriving after a stronger one is dropped,
//     keeping the Correctable's level sequence monotone even against misbehaving
//     storage);
//   * the §5.2 digest-confirmation optimization (a confirmation final closes the
//     Correctable with the preliminary value);
//   * client-cache write-through via the plan's RefreshHook;
//   * error fan-in (preliminary-level errors are tolerated while a stronger view may
//     still arrive; final-level errors fail the Correctable) and timeout arming;
//   * read coalescing: same-key reads with the same level set submitted within one
//     event-loop tick share a single store round-trip, its responses fanned back out to
//     every waiting Correctable;
//   * cross-tick batching (BatchConfig::batch_window > 0): reads and writes for one
//     coalescing scope accumulate across ticks and flush as one store submission — a
//     multiget with one entry per distinct key, or an in-order multiput with one entry
//     per write. Scope keys come from Binding::CoalescingScope for reads AND writes,
//     re-consulted at flush time so a rebalance mid-window re-routes instead of letting
//     a batch span shards.
//
// Every store submission is one Batch: an operation plus one waiter list per entry of
// its request. An unbatched or same-tick-coalesced invocation (and a queue op, or a
// MultiGet/MultiPut an application submits itself) is a one-entry batch whose waiters
// all see the whole emission; a flushed cohort of one entry still goes out as a plain
// kGet/kPut. A multi-entry value is split per entry with UnpackRead/UnpackWriteAck, so
// each waiter sees what a lone request would have returned.
#ifndef ICG_CORRECTABLES_INVOCATION_PIPELINE_H_
#define ICG_CORRECTABLES_INVOCATION_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/pooled.h"
#include "src/common/small_vec.h"
#include "src/correctables/batch_scheduler.h"
#include "src/correctables/binding.h"
#include "src/correctables/correctable.h"
#include "src/sim/event_loop.h"

namespace icg {

// Counters surfaced through CorrectableClient::stats(). The invocation-kind counters are
// maintained by the client; everything from views_delivered down by the pipeline.
struct ClientStats {
  int64_t invocations = 0;
  int64_t weak_invocations = 0;
  int64_t strong_invocations = 0;
  int64_t icg_invocations = 0;
  int64_t views_delivered = 0;
  int64_t confirmations = 0;         // finals delivered as confirmations
  int64_t divergences = 0;           // finals that differed from the last preliminary
  int64_t stale_views_dropped = 0;   // out-of-order weaker views suppressed
  int64_t errors = 0;
  int64_t timeouts = 0;
  int64_t batched_invocations = 0;   // read batches that served more than one invocation
  int64_t coalesced_reads = 0;       // reads that shared another read's store round-trip
  int64_t cross_tick_batches = 0;    // window flushes that merged >= 2 invocations into
                                     // one store submission (reads or writes)
  int64_t batched_writes = 0;        // writes submitted through a batched multiput
  int64_t overload_sheds = 0;        // invocations failed by per-shard backpressure
                                     // (retryable OVERLOADED finals)
  int64_t dropped_emissions = 0;     // binding emissions at a level the step did not
                                     // declare or the invocation did not request
  int64_t preliminary_errors = 0;    // tolerated errors at a preliminary level

  friend bool operator==(const ClientStats&, const ClientStats&) = default;
};

class InvocationPipeline {
 public:
  // `loop` may be null (synchronous unit tests): timeouts cannot be armed, view
  // timestamps read as zero, and read coalescing / cross-tick batching are disabled
  // (there is no tick). `binding` and `stats` must outlive the pipeline.
  InvocationPipeline(Binding* binding, EventLoop* loop, ClientStats* stats);

  // Fails invocations whose final view has not arrived within `timeout` (0 disables).
  // The timer arms at submission, so a waiter queued in a pending cross-tick batch still
  // times out on its own schedule — and fails alone.
  void SetTimeout(SimDuration timeout) { timeout_ = timeout; }

  // Configures cross-tick batching. batch_window == 0 (the default) leaves only
  // same-tick read coalescing.
  void SetBatchConfig(const BatchConfig& config) { scheduler_.SetConfig(config); }
  const BatchConfig& batch_config() const { return scheduler_.config(); }

  // Flushes every pending cross-tick cohort immediately (explicit barrier / teardown).
  void FlushPendingBatches() { scheduler_.FlushAll(); }
  size_t pending_batched_ops() const { return scheduler_.pending_ops(); }

  // Validates `levels`, plans `op` with the binding, and drives a Correctable through
  // one view per requested level, weakest first. Same-key kGet submissions with the same
  // level set within one event-loop tick coalesce onto the first submission's round-trip;
  // with a batch window configured, kGet/kPut submissions accumulate per coalescing
  // scope and flush as batched store submissions.
  Correctable<OpResult> Submit(Operation op, LevelVec levels);

 private:
  // Per-waiter delivery state: one per submitted Correctable.
  struct Invocation {
    Invocation(EventLoop* loop, ConsistencyLevel strongest)
        : source(loop), strongest(strongest) {}
    CorrectableSource<OpResult> source;
    ConsistencyLevel strongest;
    TimerId timer = 0;
  };

  // The waiters of one entry of a batch's request.
  using Waiters = SmallVec<std::shared_ptr<Invocation>, 2>;

  // One planned store submission, fanned out to the waiters of each of its entries.
  struct Batch {
    Operation op;
    LevelSet level_set;
    bool coalescable = false;
    SimTime tick = 0;            // submission tick of a coalescable batch
    bool done = false;           // strongest-level response delivered
    std::string map_key;         // open_batches_ entry while joinable
    // One list per entry of `op`: a single entry for an unbatched, coalesced or
    // one-entry flushed submission; one per distinct key (reads) or per write, in the
    // request's order, for a flushed multi-entry cohort (most of which hold two, so
    // two lists sit inline).
    SmallVec<Waiters, 2> entries;
    struct Emission {
      ConsistencyLevel level;
      StatusOr<OpResult> result;
      ResponseKind kind;
    };
    SmallVec<Emission, 2> history;  // replayed to late same-tick joiners
  };

  void ArmTimeout(const std::shared_ptr<Invocation>& inv);
  void CancelTimeout(Invocation& inv);
  void Launch(const std::shared_ptr<Batch>& batch);
  void OnEmission(const std::shared_ptr<Batch>& batch, ConsistencyLevel level,
                  StatusOr<OpResult> result, ResponseKind kind);
  // Delivers one response to the waiters an entry holds now; the last is handed the
  // result itself (no copy).
  void DeliverToEntry(const Waiters& waiters, ConsistencyLevel level, StatusOr<OpResult> result,
                      ResponseKind kind);
  // Cross-tick flush: launches the cohort as one batch, or, when a ring change moved some
  // of its operations to another scope, one batch per current scope.
  void OnCohortFlush(BatchScheduler::Cohort& cohort);
  // Launches `ops` (all in one scope) as one batch; takes their keys, values and waiters.
  void FlushGroup(bool is_read, const LevelVec& levels,
                  std::vector<BatchScheduler::Pending>& ops);
  // Translates one raw response into a view transition on one waiter.
  void Deliver(Invocation& inv, ConsistencyLevel level, StatusOr<OpResult> result,
               ResponseKind kind);

  Binding* binding_;
  EventLoop* loop_;
  ClientStats* stats_;
  // SupportedLevels() and Name() return fresh containers per call; both are stable by
  // contract, so hot paths read these cached copies instead of allocating per submission.
  std::vector<ConsistencyLevel> supported_levels_;
  std::string binding_name_;
  SimDuration timeout_ = 0;
  // Joinable read batches of the current submission tick; wholesale-cleared when the
  // tick advances (entries for lost responses must not accumulate).
  SimTime batch_tick_ = 0;
  // Per-client monotone write clock: every kPut is stamped max(now, last + 1) at
  // submission, so a writer's same-key writes carry strictly increasing LWW timestamps
  // however they are later batched or re-routed (see Operation::timestamp).
  SimTime last_write_stamp_ = 0;
  // Pool-allocated nodes: map churn (one insert/erase per coalescable read batch)
  // recycles node blocks instead of hitting the global allocator.
  PooledMap<std::string, std::shared_ptr<Batch>> open_batches_;
  // Reused lookup-key buffer for BatchKey construction; its capacity persists across
  // submissions, so steady-state key building allocates nothing.
  std::string scratch_key_;
  BatchScheduler scheduler_;  // must follow loop_ (init order)
};

}  // namespace icg

#endif  // ICG_CORRECTABLES_INVOCATION_PIPELINE_H_
