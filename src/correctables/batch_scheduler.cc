#include "src/correctables/batch_scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace icg {
namespace {

// The order FlushAll and SetConfig visit cohorts in: reads before writes, then by scope,
// then by level names. Only those rare paths compare cohorts, so spelling the levels out
// here costs the per-operation path nothing.
bool FlushesBefore(const BatchScheduler::Cohort& a, const BatchScheduler::Cohort& b) {
  if (a.is_read != b.is_read) {
    return a.is_read;
  }
  if (a.scope != b.scope) {
    return a.scope < b.scope;
  }
  return LevelsToString(a.levels) < LevelsToString(b.levels);
}

}  // namespace

BatchScheduler::BatchScheduler(EventLoop* loop, FlushFn flush)
    : loop_(loop), flush_(std::move(flush)) {
  assert(flush_ != nullptr);
}

BatchScheduler::~BatchScheduler() {
  for (const Open& open : open_) {
    if (open.timer != 0 && loop_ != nullptr) {
      loop_->Cancel(open.timer);
    }
  }
}

std::vector<uint64_t> BatchScheduler::IdsInFlushOrder() const {
  std::vector<const Open*> sorted;
  sorted.reserve(open_.size());
  for (const Open& open : open_) {
    sorted.push_back(&open);
  }
  std::sort(sorted.begin(), sorted.end(), [](const Open* a, const Open* b) {
    return FlushesBefore(a->cohort, b->cohort);
  });
  std::vector<uint64_t> ids;
  ids.reserve(sorted.size());
  for (const Open* open : sorted) {
    ids.push_back(open->id);
  }
  return ids;
}

void BatchScheduler::SetConfig(const BatchConfig& config) {
  config_ = config;
  if (loop_ == nullptr || open_.empty()) {
    return;
  }
  // Re-arm every pending cohort against the new window, measured from the cohort's
  // original open time. Timers are cancelled before anything flushes and each cohort
  // is handled exactly once, so a waiter can neither be stranded (its timer cancelled
  // with no replacement) nor delivered twice (Flush removes before invoking).
  std::vector<uint64_t> flush_now;
  const SimTime now = loop_->Now();
  for (const uint64_t id : IdsInFlushOrder()) {
    Open& open = *std::find_if(open_.begin(), open_.end(),
                               [id](const Open& o) { return o.id == id; });
    if (open.timer != 0) {
      loop_->Cancel(open.timer);
      open.timer = 0;
    }
    const SimTime deadline = open.opened_at + config_.batch_window;
    if (config_.batch_window == 0 || deadline <= now ||
        open.cohort.ops.size() >= config_.max_batch_ops) {
      // Shrink-to-0 (batching disabled: no timer would ever fire again), a deadline
      // already in the past under the new window, or a cohort the new size cap says is
      // full — all flush now. Collected first: Flush mutates open_.
      flush_now.push_back(id);
      continue;
    }
    open.timer = loop_->ScheduleAt(deadline, [this, id]() { Flush(id); });
  }
  for (const uint64_t id : flush_now) {
    Flush(id);
  }
}

void BatchScheduler::Admit(bool is_read, std::string scope, const LevelVec& levels,
                           Operation op, std::shared_ptr<void> waiter) {
  assert(enabled());
  auto it = std::find_if(open_.begin(), open_.end(), [&](const Open& open) {
    return open.cohort.is_read == is_read && open.cohort.scope == scope &&
           open.cohort.levels == levels;
  });
  if (it == open_.end()) {
    Open& open = open_.emplace_back();
    open.cohort.is_read = is_read;
    open.cohort.scope = std::move(scope);
    open.cohort.levels = levels;
    if (!spare_ops_.empty()) {
      open.cohort.ops = std::move(spare_ops_.back());
      spare_ops_.pop_back();
    }
    open.id = next_id_++;
    open.opened_at = loop_->Now();
    // The window opens with the cohort's first admission; later joiners do not extend
    // it, so no waiter is delayed more than one batch_window.
    open.timer = loop_->Schedule(config_.batch_window, [this, id = open.id]() { Flush(id); });
    it = open_.end() - 1;
  }
  it->cohort.ops.push_back(Pending{std::move(op), std::move(waiter)});
  if (it->cohort.ops.size() >= config_.max_batch_ops) {
    Flush(it->id);
  }
}

void BatchScheduler::Flush(uint64_t id) {
  auto it = std::find_if(open_.begin(), open_.end(),
                         [id](const Open& open) { return open.id == id; });
  if (it == open_.end()) {
    return;  // already flushed (size cap raced the timer)
  }
  if (it->timer != 0) {
    loop_->Cancel(it->timer);
  }
  Cohort cohort = std::move(it->cohort);
  // Remove before invoking the flush handler: a handler callback may submit follow-up
  // operations that must open a fresh cohort, not append to the one being flushed.
  // open_ is unordered, so the last cohort fills the hole.
  if (it != open_.end() - 1) {
    *it = std::move(open_.back());
  }
  open_.pop_back();
  flush_(cohort);
  if (cohort.ops.capacity() > 0) {
    cohort.ops.clear();
    spare_ops_.push_back(std::move(cohort.ops));
  }
}

void BatchScheduler::FlushAll() {
  // One at a time, so a cohort a flush handler opens is flushed here too, in order.
  while (!open_.empty()) {
    Flush(IdsInFlushOrder().front());
  }
}

size_t BatchScheduler::pending_ops() const {
  size_t total = 0;
  for (const Open& open : open_) {
    total += open.cohort.ops.size();
  }
  return total;
}

}  // namespace icg
