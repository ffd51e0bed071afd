// Lightweight counters and byte meters used to reproduce the paper's bandwidth and
// throughput measurements (Figures 6, 8, 9, 10).
#ifndef ICG_COMMON_METRICS_H_
#define ICG_COMMON_METRICS_H_

#include <cstdint>

#include "src/common/types.h"

namespace icg {

// Monotonic event counter.
class Counter {
 public:
  void Increment(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

// Tracks bytes moved over a logical link, split by direction, so benchmarks can report
// client<->replica traffic per operation as the paper does (kB/op).
class BandwidthMeter {
 public:
  void RecordSent(int64_t bytes) {
    sent_bytes_ += bytes;
    sent_messages_ += 1;
  }
  void RecordReceived(int64_t bytes) {
    received_bytes_ += bytes;
    received_messages_ += 1;
  }

  int64_t sent_bytes() const { return sent_bytes_; }
  int64_t received_bytes() const { return received_bytes_; }
  int64_t total_bytes() const { return sent_bytes_ + received_bytes_; }
  int64_t sent_messages() const { return sent_messages_; }
  int64_t received_messages() const { return received_messages_; }

  double BytesPerOp(int64_t ops) const {
    return ops == 0 ? 0.0 : static_cast<double>(total_bytes()) / static_cast<double>(ops);
  }
  double KilobytesPerOp(int64_t ops) const { return BytesPerOp(ops) / 1000.0; }

  void Reset() {
    sent_bytes_ = received_bytes_ = 0;
    sent_messages_ = received_messages_ = 0;
  }

 private:
  int64_t sent_bytes_ = 0;
  int64_t received_bytes_ = 0;
  int64_t sent_messages_ = 0;
  int64_t received_messages_ = 0;
};

// Simple throughput accounting over a measurement window of virtual time.
class ThroughputMeter {
 public:
  void RecordOp() { ops_ += 1; }
  int64_t ops() const { return ops_; }
  void Reset() { ops_ = 0; }

  double OpsPerSecond(SimDuration window) const {
    return window <= 0 ? 0.0 : static_cast<double>(ops_) / ToSeconds(window);
  }

 private:
  int64_t ops_ = 0;
};

}  // namespace icg

#endif  // ICG_COMMON_METRICS_H_
