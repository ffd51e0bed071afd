// Micro benchmark of the invocation hot path: ns/op and heap allocations/op for a
// single-level invoke and a two-level ICG invoke driven straight through the
// InvocationPipeline against synchronous bindings (no store, no network — pure library
// overhead, the price the paper argues must stay negligible against network latencies).
// Two full-stack scenarios drive the same client API through MakeCassandraStack (binding,
// KvClient, network, coordinator queue, quorum, WAL) until the world is idle again: a
// CC2 ICG read to its final view and a strong (W=1) put of a 100 B value.
//
// Unlike micro_correctables (google-benchmark, optional dependency) this is a plain
// executable so CI can always run it, and it counts global operator new calls so the
// zero-allocation claim is measured, not asserted. Writes BENCH_micro_pipeline.json.
//
// Usage:
//   micro_pipeline                   run, print, write BENCH_micro_pipeline.json
//   micro_pipeline --check FILE      also compare against a baseline JSON: exits 1 if
//                                    any *.allocs_per_op grew (machine-independent), or
//                                    if any *.ns_per_op regressed more than 20% — the
//                                    ns/op gates only apply when the baseline's "cores"
//                                    matches this machine (wall-clock numbers recorded
//                                    on different hardware are not comparable).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/correctables/client.h"
#include "src/correctables/correctable.h"
#include "src/harness/deployment.h"

// --- global allocation counter ---------------------------------------------------------
// Counts every operator-new entry (scalar and array). Relaxed atomics: the bench is
// single-threaded; the atomic only keeps the override well-defined in general.

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace icg {
namespace {

// Single-level binding whose fetch resolves synchronously (mirrors micro_correctables'
// ImmediateBinding so the two benches stay comparable).
class ImmediateBinding : public Binding {
 public:
  std::string Name() const override { return "immediate"; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kStrong};
  }
  InvocationPlan PlanInvocation(const Operation&, const LevelSet&) override {
    InvocationPlan plan;
    plan.AddStep(ConsistencyLevel::kStrong, [](const Operation&, LevelEmitter emit) {
      OpResult r;
      r.found = true;
      emit(ConsistencyLevel::kStrong, std::move(r));
    });
    return plan;
  }
};

// The ICG shape: weak preliminary + strong final from one span step.
class ImmediateIcgBinding : public Binding {
 public:
  std::string Name() const override { return "immediate-icg"; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }
  InvocationPlan PlanInvocation(const Operation&, const LevelSet& levels) override {
    InvocationPlan plan;
    plan.AddSpan(levels.levels(), [](const Operation&, LevelEmitter emit) {
      OpResult r;
      r.found = true;
      emit(ConsistencyLevel::kWeak, r);
      emit(ConsistencyLevel::kStrong, std::move(r));
    });
    return plan;
  }
};

struct Measurement {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

// Times `op` in batches of `batch` until `min_time` has passed (at least one batch),
// after `warmup` ops that prime thread-local pools and reusable buffer capacities (the
// steady state is what the claim is about: transient first-touch allocations are pool
// fills, not per-op costs).
template <typename Fn>
Measurement Measure(Fn&& op, int warmup = 20000, int batch = 50000,
                    std::chrono::milliseconds min_time = std::chrono::milliseconds(300)) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup; ++i) {
    op();
  }
  int64_t iters = 0;
  int64_t allocs = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  do {
    const int64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < batch; ++i) {
      op();
    }
    allocs += g_allocations.load(std::memory_order_relaxed) - allocs_before;
    iters += batch;
    now = Clock::now();
  } while (now - start < min_time);
  const double elapsed_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(now - start).count());
  Measurement m;
  m.ns_per_op = elapsed_ns / static_cast<double>(iters);
  m.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(iters);
  return m;
}

// Pulls `"key": <number>` out of a flat BENCH_*.json (the format JsonSummary writes).
bool JsonNumber(const std::string& text, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

int Run(int argc, char** argv) {
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }

  bench::PrintHeader("micro_pipeline",
                     "Invocation hot path: ns/op and heap allocations/op through the "
                     "InvocationPipeline (synchronous bindings, library overhead only) and "
                     "through a full Cassandra stack.");

  auto single_binding = std::make_shared<ImmediateBinding>();
  CorrectableClient single_client(single_binding);
  const Measurement single = Measure([&]() {
    Correctable<OpResult> c = single_client.InvokeStrong(Operation::Get("k"));
    if (!c.is_final()) {
      std::abort();
    }
  });

  auto icg_binding = std::make_shared<ImmediateIcgBinding>();
  CorrectableClient icg_client(icg_binding);
  const Measurement icg = Measure([&]() {
    Correctable<OpResult> c = icg_client.Invoke(Operation::Get("k"));
    if (!c.is_final() || c.views_delivered() != 2) {
      std::abort();
    }
  });

  const Measurement direct = Measure([]() {
    CorrectableSource<OpResult> src;
    OpResult r;
    r.found = true;
    src.Close(std::move(r), ConsistencyLevel::kStrong);
    if (!src.GetCorrectable().is_final()) {
      std::abort();
    }
  });

  // Full stack: one client in IRL coordinated by FRK, CC2 (R=2) over FRK/IRL/VRG, no
  // jitter. Each op runs the world until no event is pending, so read repair, late peer
  // replies and write fan-out are all inside the op they belong to. One fixed batch of
  // ops each: every write grows the three replicas' WALs, which are never truncated in
  // the default configuration.
  constexpr int kStackWarmup = 2000;
  constexpr int kStackOps = 20000;
  const std::string value(100, 'v');
  SimWorld read_world(/*seed=*/1, /*jitter_sigma=*/0.0);
  CassandraStack read_stack = MakeCassandraStack(read_world, KvConfig{}, CassandraBindingConfig{});
  read_stack.cluster->Preload("user1", value);
  const Measurement stack_read = Measure([&]() {
    Correctable<OpResult> c = read_stack.client->Invoke(Operation::Get("user1"));
    read_world.loop().Run();
    if (!c.is_final() || c.views_delivered() != 2) {
      std::abort();
    }
  }, kStackWarmup, kStackOps, std::chrono::milliseconds(0));

  SimWorld write_world(/*seed=*/1, /*jitter_sigma=*/0.0);
  CassandraStack write_stack =
      MakeCassandraStack(write_world, KvConfig{}, CassandraBindingConfig{});
  const Measurement stack_write = Measure([&]() {
    Correctable<OpResult> c = write_stack.client->InvokeStrong(Operation::Put("user1", value));
    write_world.loop().Run();
    if (!c.is_final()) {
      std::abort();
    }
  }, kStackWarmup, kStackOps, std::chrono::milliseconds(0));

  bench::Table table({"scenario", "ns/op", "allocs/op"});
  table.AddRow({"direct source close (baseline)", bench::Fmt(direct.ns_per_op),
                bench::Fmt(direct.allocs_per_op, 3)});
  table.AddRow({"pipeline single-level invoke", bench::Fmt(single.ns_per_op),
                bench::Fmt(single.allocs_per_op, 3)});
  table.AddRow({"pipeline ICG invoke (2 views)", bench::Fmt(icg.ns_per_op),
                bench::Fmt(icg.allocs_per_op, 3)});
  table.AddRow({"full stack CC2 ICG read", bench::Fmt(stack_read.ns_per_op),
                bench::Fmt(stack_read.allocs_per_op, 3)});
  table.AddRow({"full stack strong write", bench::Fmt(stack_write.ns_per_op),
                bench::Fmt(stack_write.allocs_per_op, 3)});
  table.Print();

  bench::JsonSummary summary("micro_pipeline");
  summary.Add("direct.ns_per_op", direct.ns_per_op, 1);
  summary.Add("direct.allocs_per_op", direct.allocs_per_op, 3);
  summary.Add("single.ns_per_op", single.ns_per_op, 1);
  summary.Add("single.allocs_per_op", single.allocs_per_op, 3);
  summary.Add("icg.ns_per_op", icg.ns_per_op, 1);
  summary.Add("icg.allocs_per_op", icg.allocs_per_op, 3);
  summary.Add("stack.icg_read.ns_per_op", stack_read.ns_per_op, 1);
  summary.Add("stack.icg_read.allocs_per_op", stack_read.allocs_per_op, 3);
  summary.Add("stack.strong_write.ns_per_op", stack_write.ns_per_op, 1);
  summary.Add("stack.strong_write.allocs_per_op", stack_write.allocs_per_op, 3);
  summary.Write();

  if (baseline_path != nullptr) {
    std::FILE* f = std::fopen(baseline_path, "r");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open baseline %s\n", baseline_path);
      return 1;
    }
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);

    int failures = 0;

    // Allocation gates are machine-independent: steady-state allocations per op are a
    // property of the code, not the hardware, so they always apply. Absolute tolerance
    // covers measurement noise from pool refills straddling a batch boundary.
    const struct {
      const char* key;
      double current;
    } alloc_gates[] = {{"single.allocs_per_op", single.allocs_per_op},
                       {"icg.allocs_per_op", icg.allocs_per_op},
                       {"stack.icg_read.allocs_per_op", stack_read.allocs_per_op},
                       {"stack.strong_write.allocs_per_op", stack_write.allocs_per_op}};
    for (const auto& gate : alloc_gates) {
      double base = 0;
      if (!JsonNumber(text, gate.key, &base)) {
        std::fprintf(stderr, "baseline %s lacks %s\n", baseline_path, gate.key);
        failures++;
        continue;
      }
      const double limit = base + 0.01;
      const bool ok = gate.current <= limit;
      std::printf("check %-32s current %8.3f  baseline %8.3f  limit %8.3f  %s\n",
                  gate.key, gate.current, base, limit, ok ? "OK" : "REGRESSED");
      if (!ok) {
        failures++;
      }
    }

    // Wall-clock gates only compare like with like: a baseline recorded on a machine
    // with a different core count is informational, not enforceable.
    double baseline_cores = 0;
    const bool have_cores = JsonNumber(text, "cores", &baseline_cores);
    const double machine_cores = static_cast<double>(std::thread::hardware_concurrency());
    if (!have_cores || baseline_cores != machine_cores) {
      std::printf("check ns/op gates skipped: baseline cores=%s, this machine has %.0f\n",
                  have_cores ? bench::Fmt(baseline_cores, 0).c_str() : "unrecorded",
                  machine_cores);
    } else {
      const struct {
        const char* key;
        double current;
      } gates[] = {{"single.ns_per_op", single.ns_per_op},
                   {"icg.ns_per_op", icg.ns_per_op}};
      for (const auto& gate : gates) {
        double base = 0;
        if (!JsonNumber(text, gate.key, &base)) {
          std::fprintf(stderr, "baseline %s lacks %s\n", baseline_path, gate.key);
          failures++;
          continue;
        }
        const double limit = base * 1.20;
        const bool ok = gate.current <= limit;
        std::printf("check %-32s current %8.1f  baseline %8.1f  limit %8.1f  %s\n",
                    gate.key, gate.current, base, limit, ok ? "OK" : "REGRESSED");
        if (!ok) {
          failures++;
        }
      }
    }
    if (failures > 0) {
      std::fprintf(stderr, "micro_pipeline: %d regression gate(s) failed\n", failures);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace icg

int main(int argc, char** argv) { return icg::Run(argc, argv); }
