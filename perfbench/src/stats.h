// Sample sets and summary statistics for the benchmark's reports.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

// A sample that missed outright (failed, timed out or refused operation). It sorts above
// every real sample, so it counts as missing any latency limit.
inline constexpr int64_t kMissed = std::numeric_limits<int64_t>::max();

// Nearest-rank percentile over `samples` (sorted in place). `pct` in (0, 100].
// Returns 0 for an empty set.
int64_t Percentile(std::vector<int64_t>& samples, double pct);

// A named latency distribution, in virtual microseconds.
struct LatencySet {
  std::vector<int64_t> samples;

  void Add(int64_t us) { samples.push_back(us); }
  void Miss() { samples.push_back(kMissed); }
  int64_t count() const { return static_cast<int64_t>(samples.size()); }
  // Samples strictly above the `pct` percentile: how much the tail estimate rests on.
  int64_t BeyondCount(double pct);
  double PercentileMs(double pct);
};

// Process CPU time in seconds. The benchmark is single-threaded, so a difference of two
// readings is the wall time between them minus the time other processes held the CPU.
double CpuSeconds();

// Median of a list of clock measurements (mean of the middle pair when even).
double Median(std::vector<double> values);

// Growth test over a series of in-flight samples taken at a fixed virtual period: the
// backlog grows when the mean of the last quarter exceeds the first quarter's mean by
// more than half plus two operations. A stable queue fluctuates around its mean; an
// overloaded one climbs linearly, so its last quarter sits far above its first.
bool BacklogGrows(const std::vector<int64_t>& in_flight);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
