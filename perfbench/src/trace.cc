#include "perfbench/src/trace.h"

#include <cstdio>
#include <utility>

namespace perfbench {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGen:
      return "gen";
    case SpanKind::kInvoke:
      return "invoke";
    case SpanKind::kPlan:
      return "plan";
    case SpanKind::kFetch:
      return "fetch";
    case SpanKind::kEmit:
      return "emit";
    case SpanKind::kCallback:
      return "callback";
    case SpanKind::kDrive:
      return "drive";
  }
  return "?";
}

int32_t SpanLog::Open(SpanKind kind, uint64_t invocation, int32_t cause) {
  Span span;
  span.kind = kind;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.cause = cause;
  span.invocation = invocation;
  span.virtual_start_us = loop_->Now();
  span.wall_start_ns = NowNs();
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

void SpanLog::Close(int32_t span) {
  Span& s = at(span);
  s.wall_end_ns = NowNs();
  s.virtual_end_us = loop_->Now();
  stack_.pop_back();
}

void SpanLog::Serve(int32_t span, const std::vector<uint64_t>& invocations) {
  Span& s = at(span);
  s.served_begin = static_cast<int32_t>(served_.size());
  s.served_count = static_cast<int32_t>(invocations.size());
  served_.insert(served_.end(), invocations.begin(), invocations.end());
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id,kind,level,parent,cause,invocation,wall_start_ns,wall_end_ns,"
                  "virtual_start_us,virtual_end_us,served\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%d,%d,%d,%lld,%lld,%lld,%lld,%lld,", i, SpanKindName(s.kind),
                 s.level, s.parent, s.cause,
                 s.invocation == kNoInvocation ? -1LL : static_cast<long long>(s.invocation),
                 static_cast<long long>(s.wall_start_ns), static_cast<long long>(s.wall_end_ns),
                 static_cast<long long>(s.virtual_start_us),
                 static_cast<long long>(s.virtual_end_us));
    for (int32_t k = 0; k < s.served_count; ++k) {
      std::fprintf(f, "%s%llu", k == 0 ? "" : " ",
                   static_cast<unsigned long long>(served_[static_cast<size_t>(s.served_begin + k)]));
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

void TracingBinding::QueueByKey(uint64_t invocation, const std::string& key, bool is_read) {
  (is_read ? queued_reads_ : queued_writes_)[key].push_back(invocation);
}

std::vector<uint64_t> TracingBinding::TakeServed(const icg::Operation& op) {
  std::vector<uint64_t> served;
  // A read cohort serves every queued read of its keys (same-key reads share one
  // slice); a write cohort carries one entry per queued write, in order.
  auto take = [&served](std::map<std::string, std::deque<uint64_t>>& queued,
                        const std::string& key, bool all) {
    auto it = queued.find(key);
    if (it == queued.end()) {
      return;
    }
    if (all) {
      served.insert(served.end(), it->second.begin(), it->second.end());
      it->second.clear();
    } else {
      served.push_back(it->second.front());
      it->second.pop_front();
    }
    if (it->second.empty()) {
      queued.erase(it);
    }
  };
  switch (op.type) {
    case icg::OpType::kGet:
      take(queued_reads_, op.key, true);
      break;
    case icg::OpType::kMultiGet:
      for (const std::string& key : op.keys) {
        take(queued_reads_, key, true);
      }
      break;
    case icg::OpType::kPut:
      take(queued_writes_, op.key, false);
      break;
    case icg::OpType::kMultiPut:
      for (const std::string& key : op.keys) {
        take(queued_writes_, key, false);
      }
      break;
    default:
      served.push_back(current_);
      break;
  }
  return served;
}

icg::InvocationPlan TracingBinding::PlanInvocation(const icg::Operation& op,
                                                   const icg::LevelSet& levels) {
  std::vector<uint64_t> served =
      batched_ ? TakeServed(op) : std::vector<uint64_t>{current_};
  const uint64_t invocation = served.size() == 1 ? served.front() : kNoInvocation;
  const int32_t plan_span = log_->Open(SpanKind::kPlan, invocation);
  log_->Serve(plan_span, served);
  icg::InvocationPlan plan = inner_->PlanInvocation(op, levels);
  log_->Close(plan_span);

  for (icg::FetchStep& step : plan.steps) {
    step.fetch = [log = log_, inner = std::move(step.fetch), plan_span, invocation,
                  served](const icg::Operation& fetch_op, icg::LevelEmitter emit) mutable {
      const int32_t fetch_span = log->Open(SpanKind::kFetch, invocation, plan_span);
      log->Serve(fetch_span, served);
      icg::LevelEmitter traced([log, emit = std::move(emit), fetch_span, invocation](
                                   icg::ConsistencyLevel level,
                                   icg::StatusOr<icg::OpResult>&& result,
                                   icg::ResponseKind kind) {
        const int32_t emit_span = log->Open(SpanKind::kEmit, invocation, fetch_span);
        log->at(emit_span).level = static_cast<int8_t>(level);
        emit(level, std::move(result), kind);
        log->Close(emit_span);
      });
      inner(fetch_op, std::move(traced));
      log->Close(fetch_span);
    };
  }
  return plan;
}

SpanTotals SumSpans(const SpanLog& log, int weak_level, int strong_level,
                    const std::function<int64_t(uint64_t)>& due_us) {
  const std::vector<Span>& spans = log.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.wall_end_ns - s.wall_start_ns;
    }
  }
  SpanTotals t;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t total = s.wall_end_ns - s.wall_start_ns;
    const int64_t self = total - child_ns[i];
    switch (s.kind) {
      case SpanKind::kGen:
        t.gen_ns += total;
        t.gen_calls++;
        break;
      case SpanKind::kInvoke:
        t.invoke_self_ns += self;
        t.invoke_calls++;
        break;
      case SpanKind::kPlan:
        t.plan_ns += total;
        t.plan_calls++;
        break;
      case SpanKind::kFetch:
        t.fetch_ns += self;
        t.fetch_calls++;
        t.fetch_served += s.served_count;
        for (int32_t k = 0; k < s.served_count; ++k) {
          const uint64_t id = log.served()[static_cast<size_t>(s.served_begin + k)];
          t.batch_wait_us.push_back(s.virtual_start_us - due_us(id));
        }
        break;
      case SpanKind::kEmit: {
        t.emit_self_ns += self;
        t.emit_calls++;
        const int64_t rtt =
            s.virtual_start_us - spans[static_cast<size_t>(s.cause)].virtual_start_us;
        if (s.level == weak_level) {
          t.weak_rtt_us.push_back(rtt);
        } else if (s.level == strong_level) {
          t.strong_rtt_us.push_back(rtt);
        }
        break;
      }
      case SpanKind::kCallback:
        break;
      case SpanKind::kDrive:
        t.drive_self_ns += self;
        t.drive_calls++;
        break;
    }
  }
  return t;
}

}  // namespace perfbench
