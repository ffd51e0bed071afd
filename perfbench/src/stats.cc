#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <ctime>

namespace perfbench {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t Percentile(std::vector<int64_t>& samples, double pct) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

int64_t LatencySet::BeyondCount(double pct) {
  const int64_t cut = Percentile(samples, pct);
  return static_cast<int64_t>(samples.end() -
                              std::upper_bound(samples.begin(), samples.end(), cut));
}

double LatencySet::PercentileMs(double pct) {
  const int64_t us = Percentile(samples, pct);
  return us == kMissed ? std::numeric_limits<double>::infinity()
                       : static_cast<double>(us) / 1000.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

bool BacklogGrows(const std::vector<int64_t>& in_flight) {
  const size_t quarter = in_flight.size() / 4;
  if (quarter == 0) {
    return false;
  }
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < quarter; ++i) {
    first += static_cast<double>(in_flight[i]);
    last += static_cast<double>(in_flight[in_flight.size() - quarter + i]);
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  return last > 1.5 * first + 2.0;
}

}  // namespace perfbench
