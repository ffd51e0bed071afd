#include "perfbench/src/load.h"

#include <cmath>

namespace perfbench {

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed;
  for (const uint64_t tag : {a, b}) {
    z += 0x9e3779b97f4a7c15ULL + tag;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
  }
  return z;
}

PoissonArrivals::PoissonArrivals(uint64_t seed, double rate_per_s, int64_t start_us)
    : rng_(seed), mean_gap_us_(1e6 / rate_per_s), exact_(static_cast<double>(start_us)) {
  Pop();
}

int64_t PoissonArrivals::Pop() {
  const int64_t due = next_;
  // Inverse-CDF draw from 53 random bits: u in (0, 1], so the log is finite.
  const double u = static_cast<double>((rng_() >> 11) + 1) * 0x1.0p-53;
  exact_ += -std::log(u) * mean_gap_us_;
  next_ = static_cast<int64_t>(std::ceil(exact_));
  return due;
}

RateSearch SearchMaxRate(double start, const std::function<bool(double)>& met, double step,
                         int max_expand, int bisect_steps) {
  RateSearch search;
  auto probe = [&](double rate) {
    const bool ok = met(rate);
    search.probes.emplace_back(rate, ok);
    return ok;
  };
  double pass = 0.0;
  double fail = 0.0;
  if (probe(start)) {
    pass = start;
    for (int i = 0; i < max_expand; ++i) {
      const double next = pass * step;
      if (!probe(next)) {
        fail = next;
        break;
      }
      pass = next;
    }
    if (fail == 0.0) {
      search.max_rate = pass;  // met even at the top of the range
      return search;
    }
  } else {
    fail = start;
    for (int i = 0; i < max_expand && pass == 0.0; ++i) {
      const double next = fail / step;
      if (probe(next)) {
        pass = next;
      } else {
        fail = next;
      }
    }
    if (pass == 0.0) {
      return search;  // missed even at the bottom of the range
    }
  }
  for (int i = 0; i < bisect_steps; ++i) {
    const double mid = (pass + fail) / 2.0;
    if (probe(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  search.max_rate = pass;
  return search;
}

}  // namespace perfbench
