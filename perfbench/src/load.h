// The open-loop load model: seeded Poisson arrivals and the search for the highest
// offered rate that still meets the latency limit.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

namespace perfbench {

// Derives an independent stream seed from the run seed and a tag path (SplitMix64).
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

// One client's arrival schedule: exponential gaps at `rate_per_s`, starting after
// `start_us`, in virtual microseconds. The stream is a pure function of the seed.
class PoissonArrivals {
 public:
  PoissonArrivals(uint64_t seed, double rate_per_s, int64_t start_us);

  // Due time of the next arrival.
  int64_t next() const { return next_; }
  // Consumes the next arrival and draws the one after it.
  int64_t Pop();

 private:
  std::mt19937_64 rng_;
  double mean_gap_us_;
  double exact_;  // unrounded, so rounding never drifts the rate
  int64_t next_ = 0;
};

// Deterministic, terminating search for the highest rate whose probe is met. Starts at
// `start`; while met, multiplies by `step` (at most `max_expand` times); if the start is
// missed, divides by `step` until met (at most `max_expand` times, else returns 0).
// Then bisects the bracket `bisect_steps` times. Every probed rate and its verdict is
// recorded in order.
struct RateSearch {
  double max_rate = 0.0;
  std::vector<std::pair<double, bool>> probes;
};

RateSearch SearchMaxRate(double start, const std::function<bool(double)>& met,
                         double step = 1.25, int max_expand = 8, int bisect_steps = 5);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
