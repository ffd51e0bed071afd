#include "src/sim/event_loop.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace icg {

EventLoop::~EventLoop() = default;

TimerId EventLoop::Schedule(SimDuration delay, Task task) {
  assert(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(task));
}

TimerId EventLoop::ScheduleAt(SimTime when, Task task) {
  assert(when >= now_);
  assert(task != nullptr);
  if (stored_nodes_ == 0) {
    // Empty structure: re-anchor the wheel at the present so this event lands in a low
    // level even after a long event-free RunUntil advanced now_ far past wheel_pos_.
    wheel_pos_ = now_;
  }
  const uint32_t index = AllocNode(when, std::move(task));
  Place(index);
  return (static_cast<TimerId>(nodes_[index].generation) << 32) | index;
}

void EventLoop::Cancel(TimerId id) {
  const uint32_t index = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (index >= nodes_.size()) {
    return;
  }
  TimerNode& node = nodes_[index];
  if (node.generation != generation || node.state != NodeState::kArmed) {
    return;  // already fired, already cancelled, or a stale/unknown handle
  }
  node.state = NodeState::kCancelled;
  node.task = nullptr;  // release captures eagerly; the shell is reaped lazily
  --live_events_;
}

bool EventLoop::RunOne() {
  if (!PrepareNext()) {
    return false;
  }
  ExecuteTop();
  return true;
}

void EventLoop::Run() {
  while (RunOne()) {
  }
}

void EventLoop::RunUntil(SimTime until) {
  assert(until >= now_);
  while (PrepareNext()) {
    if (nodes_[due_.front()].when > until) {
      break;
    }
    ExecuteTop();
  }
  now_ = until;
}

uint32_t EventLoop::AllocNode(SimTime when, Task task) {
  uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = nodes_[index].next_free;
  } else {
    index = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[index].generation = 1;  // ids are (generation << 32) | index, never zero
  }
  TimerNode& node = nodes_[index];
  node.when = when;
  node.seq = next_seq_++;
  node.state = NodeState::kArmed;
  node.next_free = kNil;
  node.task = std::move(task);
  ++stored_nodes_;
  ++live_events_;
  return index;
}

void EventLoop::FreeNode(uint32_t index) {
  TimerNode& node = nodes_[index];
  node.task = nullptr;
  node.state = NodeState::kFree;
  ++node.generation;  // invalidates any TimerId still referring to this slot
  if (node.generation == 0) {
    node.generation = 1;
  }
  node.next_free = free_head_;
  free_head_ = index;
  --stored_nodes_;
}

void EventLoop::Place(uint32_t index) {
  const SimTime when = nodes_[index].when;
  if (when < wheel_pos_) {
    // The wheel has swept past this instant (a same-time nested schedule, or a cascade
    // landing behind an already-drained slot). The due heap restores (when, seq) order.
    PushDue(index);
    return;
  }
  for (int level = 0; level < kLevels; ++level) {
    const int shift = LevelShift(level);
    // A node fits at this level iff its slot quotient is under one lap (64 ticks) ahead
    // of the wheel's. That keeps cyclic slot indices unambiguous: a plain delta bound
    // would let a node one full lap out share the wheel's CURRENT slot index, making
    // LevelMinBase reconstruct a too-early base and the cascade re-place the node into
    // the very bucket being drained (losing it).
    if ((when >> shift) - (wheel_pos_ >> shift) < static_cast<SimTime>(kSlots)) {
      const uint32_t slot = static_cast<uint32_t>(when >> shift) & (kSlots - 1);
      slots_[level][slot].push_back(index);
      occupancy_[level] |= uint64_t{1} << slot;
      return;
    }
  }
  if (overflow_.empty() || when < overflow_min_) {
    overflow_min_ = when;
  }
  overflow_.push_back(index);
}

void EventLoop::PushDue(uint32_t index) {
  due_.push_back(index);
  std::push_heap(due_.begin(), due_.end(), [this](uint32_t a, uint32_t b) {
    const TimerNode& na = nodes_[a];
    const TimerNode& nb = nodes_[b];
    return na.when != nb.when ? na.when > nb.when : na.seq > nb.seq;
  });
}

uint32_t EventLoop::PopDue() {
  std::pop_heap(due_.begin(), due_.end(), [this](uint32_t a, uint32_t b) {
    const TimerNode& na = nodes_[a];
    const TimerNode& nb = nodes_[b];
    return na.when != nb.when ? na.when > nb.when : na.seq > nb.seq;
  });
  const uint32_t index = due_.back();
  due_.pop_back();
  return index;
}

std::optional<SimTime> EventLoop::LevelMinBase(int level) const {
  const uint64_t occ = occupancy_[level];
  if (occ == 0) {
    return std::nullopt;
  }
  // Every node in level l lies in [wheel_pos_, wheel_pos_ + LevelSpan(l)), so scanning
  // slots cyclically from wheel_pos_'s index visits them in base-time order.
  const int shift = LevelShift(level);
  const uint32_t pos = static_cast<uint32_t>(wheel_pos_ >> shift) & (kSlots - 1);
  const int distance = std::countr_zero(std::rotr(occ, static_cast<int>(pos)));
  return ((wheel_pos_ >> shift) + distance) << shift;
}

std::optional<SimTime> EventLoop::WheelMinBase() const {
  std::optional<SimTime> best;
  if (!overflow_.empty()) {
    best = overflow_min_;
  }
  for (int level = 0; level < kLevels; ++level) {
    if (const auto base = LevelMinBase(level); base && (!best || *base < *best)) {
      best = *base;
    }
  }
  return best;
}

void EventLoop::RefillOnce() {
  // Pick the earliest-based source. Ties go to overflow, then the HIGHER level: cascades
  // must land before an equal-based level-0 slot drains and bumps wheel_pos_ past them,
  // which keeps the invariant that no wheel node is ever behind wheel_pos_.
  int best_level = -1;  // -1 selects the overflow list
  std::optional<SimTime> best;
  if (!overflow_.empty()) {
    best = overflow_min_;
  }
  for (int level = kLevels - 1; level >= 0; --level) {
    if (const auto base = LevelMinBase(level); base && (!best || *base < *best)) {
      best = *base;
      best_level = level;
    }
  }
  if (!best) {
    return;
  }

  if (best_level == -1) {
    assert(overflow_min_ >= wheel_pos_);
    wheel_pos_ = overflow_min_;
    std::vector<uint32_t> rehome;
    rehome.swap(overflow_);
    for (const uint32_t index : rehome) {
      if (nodes_[index].state == NodeState::kCancelled) {
        FreeNode(index);
      } else {
        Place(index);  // at least the minimum lands in the wheel: guaranteed progress
      }
    }
    return;
  }

  const int shift = LevelShift(best_level);
  const uint32_t slot = static_cast<uint32_t>(*best >> shift) & (kSlots - 1);
  std::vector<uint32_t>& bucket = slots_[best_level][slot];
  occupancy_[best_level] &= ~(uint64_t{1} << slot);
  if (best_level == 0) {
    // A level-0 slot is one exact microsecond: everything in it is due at *best.
    for (const uint32_t index : bucket) {
      if (nodes_[index].state == NodeState::kCancelled) {
        FreeNode(index);
      } else {
        PushDue(index);
      }
    }
    bucket.clear();
    wheel_pos_ = *best + 1;  // this instant is fully drained
  } else {
    if (*best > wheel_pos_) {
      wheel_pos_ = *best;
    }
    // Cascade: occupants span one level-l slot width, i.e. < LevelSpan(l-1) from the new
    // wheel_pos_, so each re-Place lands at a strictly lower level (or the due heap).
    for (const uint32_t index : bucket) {
      if (nodes_[index].state == NodeState::kCancelled) {
        FreeNode(index);
      } else {
        Place(index);
      }
    }
    bucket.clear();
  }
}

bool EventLoop::PrepareNext() {
  for (;;) {
    while (!due_.empty() && nodes_[due_.front()].state == NodeState::kCancelled) {
      FreeNode(PopDue());
    }
    const std::optional<SimTime> wheel_min = WheelMinBase();
    if (!wheel_min) {
      return !due_.empty();
    }
    if (!due_.empty() && nodes_[due_.front()].when < *wheel_min) {
      // Strict: an equal-based wheel slot may still hold an equal-time, earlier-seq node.
      return true;
    }
    RefillOnce();
  }
}

void EventLoop::ExecuteTop() {
  const uint32_t index = PopDue();
  assert(nodes_[index].state == NodeState::kArmed);
  const SimTime when = nodes_[index].when;
  Task task = std::move(nodes_[index].task);
  --live_events_;
  // Free before running: the id is invalidated, so cancelling a fired timer is a no-op,
  // and nested schedules may reuse the slot under a fresh generation.
  FreeNode(index);
  assert(when >= now_);
  now_ = when;
  ++events_processed_;
  task();
}

}  // namespace icg
