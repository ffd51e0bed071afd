#include "perfbench/src/runner.h"

#include <algorithm>
#include <utility>

#include "perfbench/src/alloc.h"
#include "perfbench/src/load.h"

namespace perfbench {

namespace {

constexpr int64_t kSamplePeriodUs = 1000;
constexpr int kWeak = static_cast<int>(icg::ConsistencyLevel::kWeak);
constexpr int kStrong = static_cast<int>(icg::ConsistencyLevel::kStrong);

}  // namespace

bool PhaseResult::Met(double limit_ms) {
  return final_view.count() > 0 && final_view.PercentileMs(99) <= limit_ms &&
         !BacklogGrows(in_flight);
}

Rep::Rep(WorkloadKind kind, uint64_t seed, bool traced, int64_t queue_depth, double expected_ops,
         int64_t drain_limit_us)
    : kind_(kind), seed_(seed), drain_limit_us_(drain_limit_us) {
  deployment_ = std::make_unique<Deployment>(kind, seed, traced, queue_depth, setup_);
  deployment_->AllowPreloaded(checker_);
  // A margin well beyond the Poisson noise of the arrival count.
  const auto room = static_cast<size_t>(expected_ops * 1.1) + 1000;
  ops_.reserve(room);
  checker_.Reserve(room);
}

void Rep::Issue(size_t client, icg::YcsbOp op, bool measured) {
  const uint64_t id = ops_.size();
  PhaseResult& phase = phases_.back();
  OpState& state = ops_.emplace_back();
  state.due = deployment_->loop().Now();
  state.phase = static_cast<uint32_t>(phases_.size() - 1);
  state.key = op.key;
  state.measured = measured;
  const bool queue = kind_ == WorkloadKind::kCzkQueue;
  if (queue) {
    state.kind = op.is_read ? OpKind::kDequeue : OpKind::kEnqueue;
  } else {
    state.kind = op.is_read ? OpKind::kRead : OpKind::kWrite;
  }
  phase.attempted++;

  icg::Operation operation;
  if (op.is_read) {
    operation = queue ? icg::Operation::Dequeue(std::move(op.key))
                      : icg::Operation::Get(std::move(op.key));
  } else {
    // Enqueued elements carry the client, so elements from different clients never
    // collide in the duplicate-dequeue check.
    std::string value;
    if (queue) {
      value.append("c").append(std::to_string(client)).append(".");
    }
    value.append(op.value);
    checker_.Allow(state.key, value);
    phase.writes++;
    phase.user_bytes_written += static_cast<int64_t>(state.key.size() + value.size());
    operation = queue ? icg::Operation::Enqueue(std::move(op.key), std::move(value))
                      : icg::Operation::Put(std::move(op.key), std::move(value));
  }
  // Key-value writes go to the strongest level only (W=1); everything else is invoked
  // with incremental views at every level.
  const bool strong_only = state.kind == OpKind::kWrite;
  checker_.Expect(id, strong_only ? kStrong : kWeak, kStrong);

  icg::CorrectableClient& target = deployment_->client(client);
  TracingBinding* tracer = deployment_->tracer(client);
  if (tracer != nullptr) {
    if (tracer->batched()) {
      tracer->QueueByKey(id, state.key, state.kind == OpKind::kRead);
    } else {
      tracer->BeginInvoke(id);
    }
  }
  const int64_t allocs_before = CountedAllocations();
  auto invoke = [&] {
    ScopedSpan span(deployment_->span_log(), SpanKind::kInvoke, id);
    CountAllocations counting;
    return strong_only ? target.InvokeStrong(std::move(operation))
                       : target.Invoke(std::move(operation));
  };
  icg::Correctable<icg::OpResult> correctable = invoke();
  phase.invoke_allocs += CountedAllocations() - allocs_before;
  if (tracer != nullptr) {
    tracer->EndInvoke();
  }
  outstanding_++;
  correctable.SetCallbacks([this, id](const icg::View<icg::OpResult>& v) { OnView(id, v); },
                           [this, id](const icg::View<icg::OpResult>& v) { OnView(id, v); },
                           [this, id](const icg::Status& s) { OnError(id, s); });
}

void Rep::OnView(uint64_t id, const icg::View<icg::OpResult>& view) {
  PauseAllocations paused;
  ScopedSpan span(deployment_->span_log(), SpanKind::kCallback, id);
  OpState& op = ops_[id];
  PhaseResult& phase = phases_[op.phase];
  const icg::OpResult& r = view.value;
  const int level = static_cast<int>(view.level);
  const uint64_t digest = ValueDigest(r.found, r.value, r.seqno);
  phase.fingerprint.Fold(id, level, view.delivered_at, digest);
  phase.views++;
  const bool stored_value = op.kind == OpKind::kRead || op.kind == OpKind::kDequeue;
  checker_.View(id, level, view.is_final, op.key, r.found, r.value, stored_value);
  if (op.done) {
    return;  // timed out already; the checker still sees the late view
  }
  const int64_t latency = view.delivered_at - op.due;
  if (!view.is_final) {
    if (!op.has_prelim) {
      op.has_prelim = true;
      op.prelim_digest = digest;
      if (op.measured) {
        phase.prelim.Add(latency);
      }
    }
    return;
  }
  op.done = true;
  outstanding_--;
  if (op.kind == OpKind::kDequeue) {
    if (!r.found) {  // an empty queue: the preload was too shallow
      phase.failed++;
      if (op.measured) {
        phase.final_view.Miss();
      }
      return;
    }
    checker_.FinalDequeue(op.key, r.value);
  }
  phase.completed++;
  if (op.measured) {
    phase.final_view.Add(latency);
    if (op.has_prelim) {
      phase.prelims++;
      if (!view.confirmed_preliminary && digest != op.prelim_digest) {
        phase.divergent++;
      }
    }
  }
}

void Rep::OnError(uint64_t id, const icg::Status& status) {
  PauseAllocations paused;
  ScopedSpan span(deployment_->span_log(), SpanKind::kCallback, id);
  OpState& op = ops_[id];
  PhaseResult& phase = phases_[op.phase];
  phase.fingerprint.Fold(id, -1, deployment_->loop().Now(),
                         static_cast<uint64_t>(status.code()));
  checker_.Error(id);
  if (op.done) {
    return;
  }
  op.done = true;
  outstanding_--;
  phase.failed++;
  if (op.measured) {
    phase.final_view.Miss();
  }
}

void Rep::Drive(int64_t until_us, PhaseResult& phase) {
  const int64_t allocs_before = CountedAllocations();
  {
    ScopedSpan span(deployment_->span_log(), SpanKind::kDrive);
    CountAllocations counting;
    deployment_->loop().RunUntil(until_us);
  }
  phase.drive_allocs += CountedAllocations() - allocs_before;
}

PhaseResult& Rep::RunPhase(const PhasePlan& plan) {
  PhaseResult& phase = phases_.emplace_back();
  phase.name = plan.name;
  phase.rate = plan.rate;
  icg::EventLoop& loop = deployment_->loop();
  const size_t clients = deployment_->num_clients();
  const int64_t start = loop.Now();
  const int64_t measure_start = start + plan.warmup_us;
  const int64_t arrivals_end = measure_start + plan.measure_us;
  const int64_t deadline = arrivals_end + drain_limit_us_;

  std::vector<icg::CoreWorkload> generators;
  std::vector<PoissonArrivals> arrivals;
  for (size_t c = 0; c < clients; ++c) {
    generators.emplace_back(YcsbConfigFor(kind_), MixSeed(seed_, plan.stream, 2 * c));
    arrivals.emplace_back(MixSeed(seed_, plan.stream, 2 * c + 1),
                          plan.rate / static_cast<double>(clients), start);
  }
  const size_t first_op = ops_.size();
  SpanLog* log = deployment_->span_log();

  phase.start = deployment_->Read();
  const double cpu_start = CpuSeconds();
  int64_t next_sample = start + kSamplePeriodUs;
  for (;;) {
    size_t next_client = 0;
    for (size_t c = 1; c < clients; ++c) {
      if (arrivals[c].next() < arrivals[next_client].next()) {
        next_client = c;
      }
    }
    const int64_t due = arrivals[next_client].next();
    const bool arriving = due < arrivals_end;
    if (!arriving && loop.Now() >= arrivals_end &&
        (outstanding_ == 0 || loop.Now() >= deadline)) {
      break;
    }
    const int64_t target = arriving ? std::min(due, next_sample) : next_sample;
    if (target > loop.Now()) {
      Drive(target, phase);
    }
    if (loop.Now() == next_sample) {
      if (next_sample == measure_start) {
        phase.measure_start = deployment_->Read();
      }
      if (next_sample > measure_start && next_sample <= arrivals_end) {
        phase.in_flight.push_back(outstanding_);
        phase.queue_depth.push_back(deployment_->MaxQueueDepth());
      }
      if (next_sample == arrivals_end) {
        phase.measure_end = deployment_->Read();
      }
      next_sample += kSamplePeriodUs;
    }
    if (arriving && due == loop.Now()) {
      arrivals[next_client].Pop();
      icg::YcsbOp op;
      {
        ScopedSpan span(log, SpanKind::kGen);
        op = generators[next_client].NextOp();
      }
      Issue(next_client, std::move(op), due >= measure_start);
    }
  }
  phase.cpu_s = CpuSeconds() - cpu_start;
  phase.end = deployment_->Read();
  // Whatever is still open at the drain deadline timed out.
  for (size_t id = first_op; id < ops_.size(); ++id) {
    OpState& op = ops_[id];
    if (!op.done) {
      op.done = true;
      outstanding_--;
      phase.failed++;
      if (op.measured) {
        phase.final_view.Miss();
      }
    }
  }
  return phase;
}

void Rep::Finish() { checker_.Finish(); }

}  // namespace perfbench
