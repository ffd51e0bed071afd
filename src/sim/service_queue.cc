#include "src/sim/service_queue.h"

#include <algorithm>
#include <cassert>

namespace icg {

SimTime ServiceQueue::Reserve(SimDuration service_time) {
  assert(service_time >= 0);
  const SimTime start = std::max(loop_->Now(), busy_until_);
  busy_until_ = start + service_time;
  submitted_ += 1;
  in_flight_ += 1;
  total_busy_time_ += service_time;
  return busy_until_;
}

}  // namespace icg
