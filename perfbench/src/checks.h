// Output checks over the views the program delivers. They check properties of the
// history, not a transcript of it:
//   * the ICG contract per invocation: views weakest-first and monotone, exactly one
//     terminal view, and the final at the strongest requested level;
//   * no thin air: every view carries a value that was preloaded or written by the
//     benchmark for that key (update consistency's bar for what a weak view may return);
//   * queues: no element is returned by two final dequeues, and every dequeued element
//     was preloaded or enqueued.
// Plus the determinism fingerprint over every delivered view.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace perfbench {

uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 0xcbf29ce484222325ULL);

// Digest of one view's payload: found flag, value bytes and sequence number.
uint64_t ValueDigest(bool found, std::string_view value, int64_t seqno);

// Order-sensitive fold of (invocation id, level, virtual delivery time, value digest)
// over every delivered view.
class Fingerprint {
 public:
  void Fold(uint64_t invocation, int level, int64_t delivered_at, uint64_t digest);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Violations {
  int64_t order = 0;          // a view below an earlier one, or at an unrequested level
  int64_t terminal = 0;       // a second terminal view, or a view after the terminal
  int64_t final_level = 0;    // final view not at the strongest requested level
  int64_t unterminated = 0;   // no terminal view by the end of the run
  int64_t thin_air = 0;       // a value never preloaded or written for that key
  int64_t double_dequeue = 0; // an element returned by two final dequeues
  int64_t unknown_dequeue = 0;  // a dequeued element never preloaded or enqueued

  int64_t total() const {
    return order + terminal + final_level + unterminated + thin_air + double_dequeue +
           unknown_dequeue;
  }
  Violations& operator+=(const Violations& v) {
    order += v.order;
    terminal += v.terminal;
    final_level += v.final_level;
    unterminated += v.unterminated;
    thin_air += v.thin_air;
    double_dequeue += v.double_dequeue;
    unknown_dequeue += v.unknown_dequeue;
    return *this;
  }
};

class OutputChecker {
 public:
  // Registers a value as legal for `key`: preloaded, or about to be written/enqueued.
  void Allow(std::string_view key, std::string_view value);

  // Makes room for `invocations` more invocations, each of which may write one value.
  void Reserve(size_t invocations);

  // Declares invocation `id` (ids are dense, from 0) with its requested level range.
  void Expect(uint64_t id, int weakest, int strongest);
  // One delivered view. `check_value` is false for views whose payload is not a stored
  // value (write acks, enqueue receipts).
  void View(uint64_t id, int level, bool is_final, std::string_view key, bool found,
            std::string_view value, bool check_value);
  // The invocation closed with an error.
  void Error(uint64_t id);
  // A final dequeue view that returned `element` from `queue`.
  void FinalDequeue(std::string_view queue, std::string_view element);
  // Counts invocations that never reached a terminal view. Call once, at the end.
  void Finish();

  const Violations& violations() const { return violations_; }

 private:
  struct Invocation {
    int8_t weakest = 0;
    int8_t strongest = 0;
    int8_t last = -1;  // level of the latest view, -1 before the first
    bool terminal = false;
  };
  static uint64_t PairDigest(std::string_view key, std::string_view value);
  void Terminate(Invocation& inv);

  std::vector<Invocation> invocations_;
  std::unordered_set<uint64_t> allowed_;          // PairDigest(key, value)
  std::unordered_map<uint64_t, int> dequeued_;     // PairDigest(queue, element) -> count
  Violations violations_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
