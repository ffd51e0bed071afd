// Single-server FIFO work queue modeling a node's CPU.
//
// Every request a replica handles consumes a service time on its queue; under load the
// queue builds up and latency rises, producing the saturation knees in the paper's
// latency-versus-throughput plots (Figures 6 and 11). The preliminary-flushing step of
// Correctable Cassandra costs extra service time per read, which is exactly what causes
// CC's ~6% throughput drop relative to baseline Cassandra.
#ifndef ICG_SIM_SERVICE_QUEUE_H_
#define ICG_SIM_SERVICE_QUEUE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "src/common/types.h"
#include "src/sim/event_loop.h"

namespace icg {

class ServiceQueue {
 public:
  ServiceQueue(EventLoop* loop, std::string name) : loop_(loop), name_(std::move(name)) {}

  // Enqueues work consuming `service_time` of server time; runs `done` at completion.
  // Non-preemptive FIFO: completion = max(now, previous completion) + service_time.
  //
  // `done` is any callable, wrapped once in a Job and scheduled as the loop's Task: a
  // job whose closure is at most EventLoop::Task's capacity minus 16 bytes (the Job's
  // queue pointer and generation) and nothrow-movable completes without a heap
  // allocation.
  template <typename F>
  void Submit(SimDuration service_time, F&& done) {
    const SimTime finish = Reserve(service_time);
    loop_->ScheduleAt(finish, Job<std::decay_t<F>>{this, generation_, std::forward<F>(done)});
  }

  // Abandons every in-flight job (kill -9 of the server): their completion callbacks
  // never run and never count, and the server is immediately idle for new work. The
  // completion events already scheduled on the loop stay there but no-op — cancelling
  // by generation instead of TimerId keeps Submit free of bookkeeping.
  void CancelPending() {
    generation_ += 1;
    in_flight_ = 0;
    busy_until_ = 0;
    cancelled_ += 1;
  }

  // Time at which the server frees up if no further work arrives.
  SimTime busy_until() const { return busy_until_; }

  // Jobs submitted but not yet completed, were the clock to advance with no new arrivals.
  int64_t InFlight() const { return in_flight_; }

  int64_t submitted() const { return submitted_; }
  int64_t completed() const { return completed_; }
  int64_t cancellations() const { return cancelled_; }
  SimDuration total_busy_time() const { return total_busy_time_; }

  // Fraction of `window` the server spent busy (assuming stats reset at window start).
  double Utilization(SimDuration window) const {
    return window <= 0 ? 0.0
                       : static_cast<double>(total_busy_time_) / static_cast<double>(window);
  }

  // Starts a new stats window. Jobs still in flight stay in InFlight() and complete
  // into the new window's completed() count.
  void ResetStats() {
    submitted_ = completed_ = 0;
    total_busy_time_ = 0;
  }

  const std::string& name() const { return name_; }

  // The completion event of one job: runs `done` unless the server was killed
  // (CancelPending) while the job was in flight.
  template <typename F>
  struct Job {
    ServiceQueue* queue;
    uint64_t generation;
    F done;

    void operator()() {
      if (generation != queue->generation_) {
        return;
      }
      queue->completed_ += 1;
      queue->in_flight_ -= 1;
      done();
    }
  };

 private:
  // Books `service_time` on the server and returns the job's completion time.
  SimTime Reserve(SimDuration service_time);

  EventLoop* loop_;
  std::string name_;
  SimTime busy_until_ = 0;
  int64_t submitted_ = 0;
  int64_t completed_ = 0;
  int64_t in_flight_ = 0;  // kept apart from the window counts, which ResetStats zeroes
  int64_t cancelled_ = 0;
  uint64_t generation_ = 0;  // bumped by CancelPending; stale completions no-op
  SimDuration total_busy_time_ = 0;
};

}  // namespace icg

#endif  // ICG_SIM_SERVICE_QUEUE_H_
