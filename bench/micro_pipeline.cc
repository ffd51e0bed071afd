// Micro benchmark of the invocation hot path: ns/op and heap allocations/op for a
// single-level invoke and a two-level ICG invoke driven straight through the
// InvocationPipeline against synchronous bindings (no store, no network — pure library
// overhead, the price the paper argues must stay negligible against network latencies).
// Two full-stack scenarios drive the same client API through MakeCassandraStack (binding,
// KvClient, network, coordinator queue, quorum, WAL) until the world is idle again: a
// CC2 ICG read to its final view and a strong (W=1) put of a 100 B value. Two more run
// them through the routed, batched path (MakeShardedCassandraStack, 5 ms window), and
// one through ZooKeeper (a CZK ICG enqueue over the Zab broadcast). The remaining
// scenarios price the Correctable machinery itself: source transitions, callback
// dispatch, and the Map / Speculate / WhenAll combinators.
//
// A plain executable, so CI can always run it, that counts global operator new calls so
// the zero-allocation claim is measured, not asserted. Every scenario is declared once,
// in one table that drives the measurement, the printed table, the JSON summary
// (BENCH_micro_pipeline.json) and the gates.
//
// Usage:
//   micro_pipeline                   run, print, write BENCH_micro_pipeline.json
//   micro_pipeline --check FILE      also compare against a baseline JSON: exits 1 if
//                                    any *.allocs_per_op grew. ns/op is reported, not
//                                    gated: five runs on one 4-core host spread by more
//                                    than 70% (single 374-640 ns, icg 514-926 ns), far
//                                    past any bound a wall-clock gate could hold.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <string>
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
// Not inlined: GCC would otherwise see the free() of a pointer from operator new at
// every inlined call site and warn (-Wmismatched-new-delete), although the replaced
// operator new above allocates with malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace icg {
namespace {

// Single-level binding whose fetch resolves synchronously: no store, no loop, pure
// library overhead.
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

// Binds `op` to the measurement: times it in batches of `batch` until `min_time` has
// passed (at least one batch), after `warmup` ops that prime thread-local pools and
// reusable buffer capacities (the steady state is what the claim is about: transient
// first-touch allocations are pool fills, not per-op costs). The op keeps its own type,
// so the timed loop calls it directly.
template <typename Op>
std::function<Measurement()> Timed(Op op, int warmup = 20000, int batch = 50000,
                                   std::chrono::milliseconds min_time =
                                       std::chrono::milliseconds(300)) {
  return [op, warmup, batch, min_time]() mutable {
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
    const auto elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now - start);
    Measurement m;
    m.ns_per_op = static_cast<double>(elapsed_ns.count()) / static_cast<double>(iters);
    m.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(iters);
    return m;
  };
}

// One row of the bench: printed as `label`, written as `key`.ns_per_op and
// `key`.allocs_per_op. Every scenario's allocs/op is gated.
struct Scenario {
  const char* label;
  const char* key;
  std::function<Measurement()> measure;
};

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

// Every op checks its result, so the work cannot be elided and a wrong result aborts.
void Require(bool ok) {
  if (!ok) {
    std::abort();
  }
}

// --- Correctable machinery, without the pipeline ---------------------------------------

void CallbackDispatch(int callbacks) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  int sink = 0;
  for (int i = 0; i < callbacks; ++i) {
    c.OnFinal([&sink](const View<int>& v) { sink += v.value; });
  }
  src.Close(1, ConsistencyLevel::kStrong);
  Require(sink == callbacks);
}

// The preliminary view (3) starts a speculation; a final 3 confirms it, a final 4
// aborts it (through `abort` when given) and re-runs it on the final value.
template <typename... AbortFn>
void Speculate(int final_value, AbortFn... abort) {
  CorrectableSource<int> src;
  auto result = src.GetCorrectable().Speculate([](const int& x) { return x * 2; }, abort...);
  src.Update(3, ConsistencyLevel::kWeak);
  src.Close(final_value, ConsistencyLevel::kStrong);
  Require(result.Final().value() == final_value * 2);
}

void MapChain(int depth) {
  CorrectableSource<int> src;
  auto c = src.GetCorrectable();
  for (int i = 0; i < depth; ++i) {
    c = c.Map([](const int& x) { return x + 1; });
  }
  src.Close(0, ConsistencyLevel::kStrong);
  Require(c.Final().value() == depth);
}

void WhenAllOf(int parts) {
  std::vector<CorrectableSource<int>> sources(static_cast<size_t>(parts));
  std::vector<Correctable<int>> handles;
  handles.reserve(sources.size());
  for (auto& s : sources) {
    handles.push_back(s.GetCorrectable());
  }
  auto all = WhenAll(handles);
  for (auto& s : sources) {
    s.Close(1, ConsistencyLevel::kStrong);
  }
  Require(all.Final().value().size() == sources.size());
}

// A preliminary string view confirmed by the final one.
void StringViews(const std::string& payload) {
  CorrectableSource<std::string> src;
  src.Update(payload, ConsistencyLevel::kWeak);
  src.CloseConfirmed(ConsistencyLevel::kStrong);
  Require(src.GetCorrectable().Final().value().size() == payload.size());
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

  CorrectableClient single_client(std::make_shared<ImmediateBinding>());
  CorrectableClient icg_client(std::make_shared<ImmediateIcgBinding>());

  // Full stack: one client in IRL coordinated by FRK, CC2 (R=2) over FRK/IRL/VRG, no
  // jitter. Each op runs the world until no event is pending, so read repair, late peer
  // replies and write fan-out are all inside the op they belong to. One fixed batch of
  // ops each: every write grows the three replicas' WALs, which are never truncated in
  // the default configuration.
  constexpr int kStackWarmup = 2000;
  constexpr int kStackOps = 20000;
  constexpr std::chrono::milliseconds kOneBatch(0);
  const std::string value(100, 'v');
  SimWorld read_world(/*seed=*/1, /*jitter_sigma=*/0.0);
  CassandraStack read_stack = MakeCassandraStack(read_world, KvConfig{}, CassandraBindingConfig{});
  read_stack.cluster->Preload("user1", value);
  SimWorld write_world(/*seed=*/1, /*jitter_sigma=*/0.0);
  CassandraStack write_stack =
      MakeCassandraStack(write_world, KvConfig{}, CassandraBindingConfig{});

  // The same two operations through the routed, batched path, one layer at a time added
  // to the rows above: a 3-coordinator sharded stack (FRK/IRL/VRG, each its own shard)
  // whose client batches over a 5 ms window, so every op goes through the batch
  // scheduler's cohort and timer, the BindingRouter's shard choice and outstanding-slot
  // tracking, and then the same store path. Reads cycle over keys on different shards.
  BatchConfig window5ms;
  window5ms.batch_window = Millis(5);
  std::vector<std::string> routed_keys;
  for (int i = 0; i < 8; ++i) {
    routed_keys.push_back("user" + std::to_string(i));
  }
  SimWorld routed_read_world(/*seed=*/1, /*jitter_sigma=*/0.0);
  ShardedCassandraStack routed_read_stack = MakeShardedCassandraStack(
      routed_read_world, /*n_coordinators=*/3, KvConfig{}, CassandraBindingConfig{},
      Region::kIreland, {Region::kFrankfurt, Region::kIreland, Region::kVirginia}, window5ms);
  for (const std::string& key : routed_keys) {
    routed_read_stack.cluster->Preload(key, value);
  }
  size_t next_routed_key = 0;
  SimWorld routed_write_world(/*seed=*/1, /*jitter_sigma=*/0.0);
  ShardedCassandraStack routed_write_stack = MakeShardedCassandraStack(
      routed_write_world, /*n_coordinators=*/3, KvConfig{}, CassandraBindingConfig{},
      Region::kIreland, {Region::kFrankfurt, Region::kIreland, Region::kVirginia}, window5ms);
  // The Zab path: a CZK ICG enqueue (preliminary from the session server's simulation,
  // final after the atomic broadcast commits) with the default ZooKeeper deployment.
  SimWorld zab_world(/*seed=*/1, /*jitter_sigma=*/0.0);
  ZooKeeperStack zab_stack = MakeZooKeeperStack(zab_world, ZabConfig{});

  const std::string payload100(100, 'x');
  const std::string payload1000(1000, 'x');
  const std::string payload10000(10000, 'x');

  const std::vector<Scenario> scenarios = {
      {"direct source close (baseline)", "direct", Timed([]() {
         CorrectableSource<OpResult> src;
         OpResult r;
         r.found = true;
         src.Close(std::move(r), ConsistencyLevel::kStrong);
         Require(src.GetCorrectable().is_final());
       })},
      {"pipeline single-level invoke", "single", Timed([&]() {
         Require(single_client.InvokeStrong(Operation::Get("k")).is_final());
       })},
      {"pipeline ICG invoke (2 views)", "icg", Timed([&]() {
         Correctable<OpResult> c = icg_client.Invoke(Operation::Get("k"));
         Require(c.is_final() && c.views_delivered() == 2);
       })},
      {"full stack CC2 ICG read", "stack.icg_read", Timed([&]() {
         Correctable<OpResult> c = read_stack.client->Invoke(Operation::Get("user1"));
         read_world.loop().Run();
         Require(c.is_final() && c.views_delivered() == 2);
       }, kStackWarmup, kStackOps, kOneBatch)},
      {"full stack strong write", "stack.strong_write", Timed([&]() {
         Correctable<OpResult> c =
             write_stack.client->InvokeStrong(Operation::Put("user1", value));
         write_world.loop().Run();
         Require(c.is_final());
       }, kStackWarmup, kStackOps, kOneBatch)},
      {"routed CC2 read, 5 ms window", "stack.routed_read", Timed([&]() {
         const std::string& key = routed_keys[next_routed_key++ % routed_keys.size()];
         Correctable<OpResult> c = routed_read_stack.client()->Invoke(Operation::Get(key));
         routed_read_world.loop().Run();
         Require(c.is_final() && c.views_delivered() == 2);
       }, kStackWarmup, kStackOps, kOneBatch)},
      {"routed strong write, 5 ms window", "stack.routed_write", Timed([&]() {
         Correctable<OpResult> c =
             routed_write_stack.client()->InvokeStrong(Operation::Put("user1", value));
         routed_write_world.loop().Run();
         Require(c.is_final());
       }, kStackWarmup, kStackOps, kOneBatch)},
      {"CZK ICG enqueue", "stack.zab_enqueue", Timed([&]() {
         Correctable<OpResult> c = zab_stack.client->Invoke(Operation::Enqueue("q", value));
         zab_world.loop().Run();
         Require(c.is_final() && c.views_delivered() == 2);
       }, kStackWarmup, kStackOps, kOneBatch)},
      {"source close", "source_close", Timed([]() {
         CorrectableSource<int> src;
         src.Close(42, ConsistencyLevel::kStrong);
         Require(src.GetCorrectable().Final().value() == 42);
       })},
      {"update then close", "update_close", Timed([]() {
         CorrectableSource<int> src;
         src.Update(1, ConsistencyLevel::kWeak);
         src.Close(2, ConsistencyLevel::kStrong);
         Require(src.GetCorrectable().Final().value() == 2);
       })},
      {"callback dispatch x1", "callbacks.1", Timed([]() { CallbackDispatch(1); })},
      {"callback dispatch x4", "callbacks.4", Timed([]() { CallbackDispatch(4); })},
      {"callback dispatch x16", "callbacks.16", Timed([]() { CallbackDispatch(16); })},
      {"speculate hit", "speculate.hit", Timed([]() { Speculate(3); })},
      {"speculate miss", "speculate.miss",
       Timed([]() { Speculate(4, [](const int&) {}); })},
      {"map chain depth 1", "map_chain.1", Timed([]() { MapChain(1); })},
      {"map chain depth 4", "map_chain.4", Timed([]() { MapChain(4); })},
      {"map chain depth 16", "map_chain.16", Timed([]() { MapChain(16); })},
      {"WhenAll of 2", "when_all.2", Timed([]() { WhenAllOf(2); })},
      {"WhenAll of 8", "when_all.8", Timed([]() { WhenAllOf(8); })},
      {"WhenAll of 32", "when_all.32", Timed([]() { WhenAllOf(32); })},
      {"string views 100 B", "string_views.100", Timed([&]() { StringViews(payload100); })},
      {"string views 1000 B", "string_views.1000", Timed([&]() { StringViews(payload1000); })},
      {"string views 10000 B", "string_views.10000",
       Timed([&]() { StringViews(payload10000); })},
  };

  std::vector<Measurement> results;
  bench::Table table({"scenario", "ns/op", "allocs/op"});
  bench::JsonSummary summary("micro_pipeline");
  for (const Scenario& scenario : scenarios) {
    results.push_back(scenario.measure());
    const std::string key = scenario.key;
    table.AddRow({scenario.label, bench::Fmt(results.back().ns_per_op),
                  bench::Fmt(results.back().allocs_per_op, 3)});
    summary.Add(key + ".ns_per_op", results.back().ns_per_op, 1);
    summary.Add(key + ".allocs_per_op", results.back().allocs_per_op, 3);
  }
  table.Print();
  summary.Write();

  if (baseline_path == nullptr) {
    return 0;
  }
  std::ifstream baseline(baseline_path);
  if (!baseline) {
    std::fprintf(stderr, "cannot open baseline %s\n", baseline_path);
    return 1;
  }
  const std::string text{std::istreambuf_iterator<char>(baseline),
                         std::istreambuf_iterator<char>()};

  // Allocation gates are machine-independent: steady-state allocations per op are a
  // property of the code, not the hardware. A scenario fails if it allocates more than
  // its baseline plus an absolute tolerance that covers pool refills straddling a batch
  // boundary, or if the baseline lacks it.
  int failures = 0;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const std::string key = std::string(scenarios[i].key) + ".allocs_per_op";
    const double current = results[i].allocs_per_op;
    double base = 0;
    if (!JsonNumber(text, key, &base)) {
      std::fprintf(stderr, "baseline %s lacks %s\n", baseline_path, key.c_str());
      failures++;
      continue;
    }
    const double limit = base + 0.01;
    const bool ok = current <= limit;
    std::printf("check %-32s current %8.3f  baseline %8.3f  limit %8.3f  %s\n", key.c_str(),
                current, base, limit, ok ? "OK" : "REGRESSED");
    if (!ok) {
      failures++;
    }
  }

  if (failures > 0) {
    std::fprintf(stderr, "micro_pipeline: %d regression gate(s) failed\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace icg

int main(int argc, char** argv) { return icg::Run(argc, argv); }
