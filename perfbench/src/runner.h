// Drives one deployment through open-loop phases in virtual time and records what every
// operation saw. One Rep is one deployment's lifetime: set-up, then one or more phases.
//
// Load model: each client issues Poisson arrivals at rate/num_clients from the
// benchmark's own seeded streams; an operation is invoked exactly at its due time and
// timed from it (so generator lateness is 0 by construction in virtual time). The loop
// advances in chunks that end at every arrival and at every virtual millisecond, where
// the backlog and the server queue depth are sampled.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/deployment.h"
#include "perfbench/src/stats.h"

namespace perfbench {

struct PhasePlan {
  std::string name;
  double rate = 0.0;  // total offered ops/s over all clients
  int64_t warmup_us = 0;
  int64_t measure_us = 0;
  uint64_t stream = 0;  // seeds this phase's arrivals and operations
};

struct PhaseResult {
  std::string name;
  double rate = 0.0;
  // Operations due inside the measurement window.
  LatencySet prelim;      // due -> first preliminary view
  LatencySet final_view;  // due -> final view; failures count as misses
  int64_t prelims = 0;    // measured operations that saw a preliminary and a final
  int64_t divergent = 0;  // ... whose final differed from the preliminary
  std::vector<int64_t> in_flight;    // outstanding operations, per virtual ms
  std::vector<int64_t> queue_depth;  // Deployment::MaxQueueDepth, per virtual ms
  // Every operation of the phase.
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t failed = 0;  // error, timed out, or an empty dequeue
  int64_t views = 0;
  int64_t writes = 0;
  int64_t user_bytes_written = 0;  // key + value bytes of writes and enqueues
  int64_t invoke_allocs = 0;
  int64_t drive_allocs = 0;
  Counters start, measure_start, measure_end, end;
  double cpu_s = 0.0;  // process CPU time of the phase loop (see CpuSeconds)
  Fingerprint fingerprint;

  // Met: final p99 within the limit and no growing backlog.
  bool Met(double limit_ms);
};

class Rep {
 public:
  // `expected_ops`: about how many operations the phases will issue; the history is
  // sized for them up front, so its memory does not grow in seed-dependent doubling
  // steps that would show in the peak RSS. `drain_limit_us`: how long after the last
  // arrival operations may still complete before they count as timed out.
  Rep(WorkloadKind kind, uint64_t seed, bool traced, int64_t queue_depth, double expected_ops,
      int64_t drain_limit_us);

  PhaseResult& RunPhase(const PhasePlan& plan);
  // Closes the history: counts unterminated invocations. Call once, after the phases.
  void Finish();

  Deployment& deployment() { return *deployment_; }
  const Deployment::SetupTimes& setup() const { return setup_; }
  const Violations& violations() const { return checker_.violations(); }
  std::deque<PhaseResult>& phases() { return phases_; }
  int64_t DueOf(uint64_t id) const { return ops_[id].due; }

 private:
  enum class OpKind : uint8_t { kRead, kWrite, kEnqueue, kDequeue };
  struct OpState {
    int64_t due = 0;
    uint32_t phase = 0;
    OpKind kind = OpKind::kRead;
    bool measured = false;
    bool done = false;
    bool has_prelim = false;
    uint64_t prelim_digest = 0;
    std::string key;
  };

  void Issue(size_t client, icg::YcsbOp op, bool measured);
  void OnView(uint64_t id, const icg::View<icg::OpResult>& view);
  void OnError(uint64_t id, const icg::Status& status);
  void Drive(int64_t until_us, PhaseResult& phase);

  WorkloadKind kind_;
  uint64_t seed_;
  int64_t drain_limit_us_;
  Deployment::SetupTimes setup_;
  std::unique_ptr<Deployment> deployment_;
  std::deque<PhaseResult> phases_;
  std::vector<OpState> ops_;
  int64_t outstanding_ = 0;
  OutputChecker checker_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
