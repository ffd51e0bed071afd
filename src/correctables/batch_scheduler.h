// BatchScheduler: the cross-tick batching engine behind the InvocationPipeline.
//
// Same-tick read coalescing (PR 1) only amortizes round-trips for operations submitted
// at the same instant of virtual time; under sustained load every tick still pays one
// store round-trip per key, and writes always go out alone. The scheduler generalizes
// coalescing into a configurable *window*: operations for the same coalescing scope and
// level set accumulate for up to `batch_window` of simulated time, then flush as one
// cohort — reads as a single multiget round-trip serving every waiter, writes as a
// single in-order multiput store submission.
//
// Division of labour: the scheduler owns *when* and *with whom* an operation batches
// (cohort grouping, window timers, size caps). It never interprets waiters — they ride
// along as opaque handles — and it never talks to a binding. The pipeline owns *what a
// flush means*: it checks a flushed cohort against the binding's current
// CoalescingScope and regroups it only if a rebalance moved keys while the window was
// open, launches the batched store submission, and fans responses back out per waiter.
// Per-waiter timers are armed at submission, so a waiter whose deadline expires inside a
// pending cohort fails alone while the rest of the cohort proceeds.
#ifndef ICG_CORRECTABLES_BATCH_SCHEDULER_H_
#define ICG_CORRECTABLES_BATCH_SCHEDULER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/correctables/consistency.h"
#include "src/correctables/operation.h"
#include "src/sim/event_loop.h"

namespace icg {

struct BatchConfig {
  // How long operations accumulate before their cohort flushes. 0 disables cross-tick
  // batching entirely: reads coalesce within one tick only and every write is its own
  // store submission.
  SimDuration batch_window = 0;
  // A cohort reaching this many operations flushes immediately instead of waiting out
  // the window (bounds store request sizes and worst-case queueing).
  size_t max_batch_ops = 128;
};

class BatchScheduler {
 public:
  // One admitted operation waiting in a cohort. `waiter` is the pipeline's per-invocation
  // delivery state, opaque to the scheduler.
  struct Pending {
    Operation op;
    std::shared_ptr<void> waiter;
  };

  // A flushed batch: every operation admitted for one (kind, scope, level-set) grouping,
  // in arrival order — which is what makes per-key program order of batched writes fall
  // out naturally.
  struct Cohort {
    bool is_read = false;
    std::string scope;
    LevelVec levels;
    std::vector<Pending> ops;
  };

  // Called with each flushed cohort. The handler takes what it needs out of the cohort;
  // the scheduler then recycles the cohort's op list for a later cohort.
  using FlushFn = std::function<void(Cohort& cohort)>;

  // `loop` may be null (loop-less unit-test clients): enabled() is then always false.
  BatchScheduler(EventLoop* loop, FlushFn flush);
  // Cancels every pending flush timer: a timer firing after the owning pipeline is gone
  // would touch freed state.
  ~BatchScheduler();

  // Installs `config` for all future admissions AND re-arms every pending cohort
  // against it: each open cohort's deadline is re-derived from its original open time
  // (opened_at + new window), so no waiter is ever delayed by more than one *new*
  // batch_window. A cohort whose new deadline has already passed — including any
  // shrink-to-0 — flushes synchronously, and a cohort at or over the new max_batch_ops
  // flushes too. Old timers are cancelled before new ones arm and Flush() is
  // idempotent, so waiters are neither dropped nor double-flushed by reconfiguration.
  void SetConfig(const BatchConfig& config);
  const BatchConfig& config() const { return config_; }

  // Cross-tick batching is active only with a loop to schedule flush timers on and a
  // non-zero window.
  bool enabled() const { return loop_ != nullptr && config_.batch_window > 0; }

  // Queues `op` into the pending cohort for (is_read, scope, levels), opening the cohort
  // (and arming its flush timer) if none is pending. May flush synchronously when the
  // cohort hits max_batch_ops. Requires enabled().
  void Admit(bool is_read, std::string scope, const LevelVec& levels, Operation op,
             std::shared_ptr<void> waiter);

  // Flushes every pending cohort now (drain before teardown, tests, explicit barriers).
  void FlushAll();

  size_t pending_ops() const;
  size_t pending_cohorts() const { return open_.size(); }

 private:
  struct Open {
    Cohort cohort;
    uint64_t id = 0;  // names the cohort to its flush timer
    TimerId timer = 0;
    SimTime opened_at = 0;  // first admission; deadlines re-derive from this on SetConfig
  };

  // Flushes the open cohort `id`; a no-op once it has flushed (size cap raced the timer).
  void Flush(uint64_t id);
  // The ids of the open cohorts, in the order FlushAll and SetConfig visit them.
  std::vector<uint64_t> IdsInFlushOrder() const;

  EventLoop* loop_;
  FlushFn flush_;
  BatchConfig config_;
  // The open cohorts, at most one per (kind, scope, level set). There are a few at a time
  // (kinds x shards), so a linear scan finds one; the vector keeps its capacity, and
  // flushed cohorts' op lists wait in spare_ops_ for the next cohort to open.
  std::vector<Open> open_;
  std::vector<std::vector<Pending>> spare_ops_;
  uint64_t next_id_ = 1;
};

}  // namespace icg

#endif  // ICG_CORRECTABLES_BATCH_SCHEDULER_H_
