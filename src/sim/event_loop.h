// Deterministic virtual-time event loop: the heart of the simulation substrate.
//
// All simulated activity (network delivery, CPU service completion, client think time,
// timeouts) is a closure scheduled at a virtual timestamp. Events at equal timestamps run
// in scheduling order, so a run is a pure function of its seeds.
//
// Internals are built for the hot path the benchmarks hammer:
//   * a hierarchical timer wheel (6 levels x 64 slots, 1 us base granularity, overflow
//     list beyond ~19 h of virtual time) replaces the former binary-heap queue: O(1)
//     schedule, O(1) cancel via generation-checked handles (no tombstone set to leak),
//     pop cost amortized over slot drains;
//   * timer nodes live in a free-list pool and embed a small-buffer-optimized task type
//     (InlineFunction), so steady-state scheduling performs zero heap allocations for
//     the common closure sizes;
//   * execution order is EXACTLY the historical contract: global (timestamp, schedule
//     order) — FIFO among same-time events — preserved bit-for-bit, which every seeded
//     test and the consistency oracles depend on.
#ifndef ICG_SIM_EVENT_LOOP_H_
#define ICG_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/types.h"

namespace icg {

// Opaque timer handle: encodes (generation, pool slot). Always nonzero, so callers can
// keep using 0 as their "no timer armed" sentinel.
using TimerId = uint64_t;

class EventLoop {
 public:
  // Sized to the largest per-op message closure: a response carrying a 112-byte
  // KvResponseFn or ZabResponseFn plus a 128-byte OpResult. Client requests (key, value,
  // options and the response function) and ServiceQueue jobs (the closure plus 16 bytes)
  // stay below it. Larger closures, or ones that are not nothrow-movable (a `const`
  // std::string member, see InlineFunction::StoresInline), spill to the heap.
  using Task = InlineFunction<void(), 256>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  SimTime Now() const { return now_; }

  // Schedules `task` to run `delay` from now (>= 0). Returns an id usable with Cancel.
  TimerId Schedule(SimDuration delay, Task task);

  // Schedules `task` at absolute virtual time `when` (>= Now()).
  TimerId ScheduleAt(SimTime when, Task task);

  // Cancels a pending timer. Cancelling an already-fired or unknown id is a no-op.
  void Cancel(TimerId id);

  // Runs the single earliest pending event. Returns false if none are pending.
  bool RunOne();

  // Runs until no events remain.
  void Run();

  // Runs all events with timestamp <= `until`, then advances Now() to `until`.
  void RunUntil(SimTime until);

  // Convenience: RunUntil(Now() + d).
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  int64_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return live_events_; }

 private:
  // Wheel geometry: level l slots are 64^l us wide; level l spans 64^(l+1) us.
  static constexpr int kLevels = 6;
  static constexpr int kSlotBits = 6;
  static constexpr uint32_t kSlots = 1u << kSlotBits;       // 64
  static constexpr uint32_t kNil = 0xffffffffu;

  enum class NodeState : uint8_t {
    kFree,       // on the free list
    kArmed,      // queued in a wheel slot, the overflow list, or the due heap
    kCancelled,  // still stored somewhere, reaped when its container drains
  };

  struct TimerNode {
    SimTime when = 0;
    uint64_t seq = 0;        // global schedule order: the FIFO tie-break among equals
    uint32_t generation = 0; // bumped on free; validates TimerIds against slot reuse
    NodeState state = NodeState::kFree;
    uint32_t next_free = kNil;
    Task task;
  };

  static constexpr int LevelShift(int level) { return kSlotBits * level; }
  // Span of one level-l slot, in us.
  static constexpr SimDuration SlotWidth(int level) { return SimDuration(1) << LevelShift(level); }
  // Total span of level l (64 slots).
  static constexpr SimDuration LevelSpan(int level) {
    return SimDuration(1) << LevelShift(level + 1);
  }

  uint32_t AllocNode(SimTime when, Task task);
  void FreeNode(uint32_t index);
  // Places an armed node into the wheel/overflow/due structure appropriate for its
  // timestamp relative to wheel_pos_.
  void Place(uint32_t index);
  void PushDue(uint32_t index);
  uint32_t PopDue();
  // Earliest possible timestamp of any node still in the wheel or overflow (a lower
  // bound: the first occupied slot's base time), or nullopt if both are empty.
  std::optional<SimTime> WheelMinBase() const;
  std::optional<SimTime> LevelMinBase(int level) const;
  // Advances the wheel to its earliest occupied slot: cascades higher-level slots down
  // and drains level-0 slots into the due heap. One step; callers loop.
  void RefillOnce();
  // Ensures the due heap's top is the globally earliest live event. Returns false when
  // nothing is pending anywhere.
  bool PrepareNext();
  void ExecuteTop();

  SimTime now_ = 0;
  int64_t events_processed_ = 0;
  size_t live_events_ = 0;    // armed (cancel excluded): what pending_events() reports
  size_t stored_nodes_ = 0;   // armed + cancelled-but-unreaped: structure emptiness check
  uint64_t next_seq_ = 1;

  std::vector<TimerNode> nodes_;
  uint32_t free_head_ = kNil;

  // The due heap: nodes whose slot has been drained (plus direct schedules at times the
  // wheel has already passed), ordered by (when, seq). Small: one slot's worth of events
  // plus same-instant schedules.
  std::vector<uint32_t> due_;

  // wheel_pos_ is the wheel's reference point: every node stored in the wheel has
  // when >= wheel_pos_, and every slot "behind" it is empty. It trails/leads now_ only
  // transiently inside PrepareNext.
  SimTime wheel_pos_ = 0;
  std::vector<uint32_t> slots_[kLevels][kSlots];
  uint64_t occupancy_[kLevels] = {};
  std::vector<uint32_t> overflow_;  // nodes beyond the top level's span
  SimTime overflow_min_ = 0;        // valid while overflow_ is non-empty
};

}  // namespace icg

#endif  // ICG_SIM_EVENT_LOOP_H_
