// Tracing for the per-layer run: in-memory spans recorded around every call the
// benchmark makes into a layer, and a binding decorator that records the calls the
// correctables layer makes into the binding (plan, fetch launch, each emission).
//
// A span records wall and virtual start/end, the span that encloses it on the call stack
// (`parent`, for self time) and the span that caused it (`cause`, e.g. the fetch whose
// response an emission carries). Spans of one invocation share its id; a batched store
// call records every invocation id it serves, matched by key.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/correctables/binding.h"
#include "src/sim/event_loop.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kGen,       // CoreWorkload::NextOp
  kInvoke,    // CorrectableClient::Invoke*
  kPlan,      // Binding::PlanInvocation
  kFetch,     // a plan step's fetcher: the store-client send path
  kEmit,      // one emission from the binding into the correctables layer
  kCallback,  // the benchmark's own view callback
  kDrive,     // one EventLoop::RunUntil chunk
};

const char* SpanKindName(SpanKind kind);

inline constexpr uint64_t kNoInvocation = ~0ULL;

struct Span {
  SpanKind kind = SpanKind::kGen;
  int8_t level = -1;  // emissions: the consistency level emitted
  int32_t parent = -1;
  int32_t cause = -1;
  uint64_t invocation = kNoInvocation;  // batched calls: see served_begin/served_count
  int64_t wall_start_ns = 0;
  int64_t wall_end_ns = 0;
  int64_t virtual_start_us = 0;
  int64_t virtual_end_us = 0;
  int32_t served_begin = 0;  // into SpanLog::served()
  int32_t served_count = 0;
};

class SpanLog {
 public:
  explicit SpanLog(icg::EventLoop* loop) : loop_(loop), origin_(Clock::now()) {}

  // Opens a span nested in the innermost open one; returns its index.
  int32_t Open(SpanKind kind, uint64_t invocation = kNoInvocation, int32_t cause = -1);
  void Close(int32_t span);
  // Attaches served invocation ids to a (batched) span.
  void Serve(int32_t span, const std::vector<uint64_t>& invocations);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<uint64_t>& served() const { return served_; }
  Span& at(int32_t span) { return spans_[static_cast<size_t>(span)]; }

  // Writes every span as one CSV row. Returns false if the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  icg::EventLoop* loop_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<uint64_t> served_;
  std::vector<int32_t> stack_;
};

// RAII span for the benchmark's own call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind, uint64_t invocation = kNoInvocation)
      : log_(log), span_(log != nullptr ? log->Open(kind, invocation) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t span_;
};

// Decorator in front of one client's binding. Forwards every virtual call; records a
// span around PlanInvocation, each fetch launch and each emission.
//
// Which invocations a plan serves: inside an unbatched Invoke it is the invocation the
// phase runner announced (BeginInvoke). A client with a batch window plans at flush
// time, so the runner registers every batchable operation by key before invoking it
// (QueueByKey), and a plan consumes the registered ids of the keys it covers, in FIFO
// order per key.
class TracingBinding : public icg::Binding {
 public:
  TracingBinding(std::shared_ptr<icg::Binding> inner, SpanLog* log, bool batched)
      : inner_(std::move(inner)), log_(log), batched_(batched) {}

  std::string Name() const override { return inner_->Name(); }
  std::vector<icg::ConsistencyLevel> SupportedLevels() const override {
    return inner_->SupportedLevels();
  }
  icg::InvocationPlan PlanInvocation(const icg::Operation& op,
                                     const icg::LevelSet& levels) override;
  std::string CoalescingScope(const icg::Operation& op) const override {
    return inner_->CoalescingScope(op);
  }
  bool SupportsBatchedReads() const override { return inner_->SupportsBatchedReads(); }
  bool SupportsBatchedWrites() const override { return inner_->SupportsBatchedWrites(); }

  bool batched() const { return batched_; }
  void BeginInvoke(uint64_t invocation) { current_ = invocation; }
  void EndInvoke() { current_ = kNoInvocation; }
  void QueueByKey(uint64_t invocation, const std::string& key, bool is_read);

 private:
  std::vector<uint64_t> TakeServed(const icg::Operation& op);

  std::shared_ptr<icg::Binding> inner_;
  SpanLog* log_;
  bool batched_;
  uint64_t current_ = kNoInvocation;
  std::map<std::string, std::deque<uint64_t>> queued_reads_;
  std::map<std::string, std::deque<uint64_t>> queued_writes_;
};

// Per-layer figures computed from one traced run's spans. Times are wall nanoseconds;
// *_us lists are virtual microseconds.
struct SpanTotals {
  int64_t gen_ns = 0, gen_calls = 0;
  int64_t invoke_self_ns = 0, invoke_calls = 0;
  int64_t plan_ns = 0, plan_calls = 0;
  int64_t fetch_ns = 0, fetch_calls = 0, fetch_served = 0;
  int64_t emit_self_ns = 0, emit_calls = 0;
  int64_t drive_self_ns = 0, drive_calls = 0;
  std::vector<int64_t> weak_rtt_us, strong_rtt_us;  // fetch launch -> emission
  std::vector<int64_t> batch_wait_us;               // arrival -> fetch launch
};

// `weak_level`/`strong_level` classify emissions for the RTT lists; `due_us(id)` is the
// arrival time of invocation `id`.
SpanTotals SumSpans(const SpanLog& log, int weak_level, int strong_level,
                    const std::function<int64_t(uint64_t)>& due_us);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
