// Counts global operator new calls inside chosen windows of the benchmark, so
// allocations per operation are measured on the calls into the program and exclude the
// benchmark's own bookkeeping. The benchmark is single-threaded.
#ifndef PERFBENCH_ALLOC_H_
#define PERFBENCH_ALLOC_H_

#include <cstdint>

namespace perfbench {

// Allocations counted so far (only those made while counting was on).
int64_t CountedAllocations();

// Turns counting on for its lifetime (restoring the previous state on exit).
class CountAllocations {
 public:
  CountAllocations();
  ~CountAllocations();
  CountAllocations(const CountAllocations&) = delete;
  CountAllocations& operator=(const CountAllocations&) = delete;

 private:
  bool saved_;
};

// Turns counting off for its lifetime: wraps the benchmark's own callbacks that run
// inside a counted window.
class PauseAllocations {
 public:
  PauseAllocations();
  ~PauseAllocations();
  PauseAllocations(const PauseAllocations&) = delete;
  PauseAllocations& operator=(const PauseAllocations&) = delete;

 private:
  bool saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_H_
