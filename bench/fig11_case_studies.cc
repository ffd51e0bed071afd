// Figure 11: using speculation via ICG to improve latency in the advertising system and
// in Twissandra (get_timeline), under YCSB workloads A, B, and C.
//
// Setup (§6.3.1): both operations are two-step reference fetches; step 1 reads the
// reference list with invoke() (R={1,2}) and speculatively prefetches the referenced
// objects; the baseline uses only strongly consistent reads (R=2) without speculation.
// The ads system runs on FRK/IRL/VRG with the client in IRL; Twissandra runs on
// VRG/NCA/ORE with the client in IRL (farther coordinator -> higher latencies overall).
//
// Paper's headline: ads served at ~60 ms average vs ~100 ms baseline (-40% latency)
// before saturation, for a ~6% throughput drop; divergence "consistently under 1%".
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/ads.h"
#include "src/apps/twissandra.h"
#include "src/harness/deployment.h"
#include "src/harness/executors.h"

namespace icg {
namespace {

// Scaled-down ads dataset (paper: 100k profiles / 230k ads) keeps trials fast;
// cardinality only affects memory, not the latency mechanics under test. Twissandra uses
// the paper's full corpus (22k timelines / 65k tweets).
AdsConfig BenchAdsConfig() {
  AdsConfig c;
  c.num_profiles = 20000;
  c.num_ads = 46000;
  return c;
}

struct Point {
  double throughput = 0;
  double latency_ms = 0;
  double divergence_pct = 0;
};

enum class App { kAds, kTwissandra };

Point RunTrial(App app, const WorkloadConfig& workload_config, bool use_icg, int threads,
               uint64_t seed) {
  SimWorld world(seed);
  const CassandraBindingConfig binding;  // CC2: strong reads at R=2

  const bool ads = app == App::kAds;
  auto stack = ads ? MakeCassandraStack(world, KvConfig{}, binding, Region::kIreland,
                                        Region::kFrankfurt,
                                        {Region::kFrankfurt, Region::kIreland, Region::kVirginia})
                   : MakeCassandraStack(world, KvConfig{}, binding, Region::kIreland,
                                        Region::kVirginia,
                                        {Region::kVirginia, Region::kCalifornia,
                                         Region::kOregon});

  std::unique_ptr<AdsSystem> ads_system;
  std::unique_ptr<Twissandra> twissandra;
  OpExecutor executor;
  if (ads) {
    ads_system = std::make_unique<AdsSystem>(stack.client.get(), BenchAdsConfig());
    ads_system->Preload(stack.cluster.get());
    executor = MakeAdsExecutor(ads_system.get(), use_icg);
  } else {
    twissandra = std::make_unique<Twissandra>(stack.client.get(), TwissandraConfig{});
    twissandra->Preload(stack.cluster.get());
    executor = MakeTwissandraExecutor(twissandra.get(), use_icg);
  }

  CoreWorkload workload(workload_config, seed + 17);
  LoadRunner runner(&world.loop(), &workload, executor,
                    {.threads = threads,
                     .duration = Seconds(45),
                     .warmup = Seconds(10),
                     .cooldown = Seconds(10)});
  const RunnerResult result = runner.Run();

  Point point;
  point.throughput = result.throughput_ops;
  point.latency_ms = result.final_view.mean_ms();
  point.divergence_pct = result.DivergencePercent();
  return point;
}

void RunApp(App app, const char* app_name, int64_t entities) {
  struct Workload {
    const char* label;
    WorkloadConfig config;
  };
  const std::vector<Workload> workloads = {
      {"A (50:50)", WorkloadConfig::YcsbA(RequestDistribution::kZipfian, entities)},
      {"B (95:5)", WorkloadConfig::YcsbB(RequestDistribution::kZipfian, entities)},
      {"C (read-only)", WorkloadConfig::YcsbC(RequestDistribution::kZipfian, entities)},
  };
  uint64_t seed = 1100;
  for (const auto& workload : workloads) {
    bench::Table table({"threads", "system", "throughput (ops/s)", "avg latency (ms)",
                        "latency gain", "divergence"});
    for (const int threads : {1, 2, 4, 8, 12, 16, 24}) {
      const Point base = RunTrial(app, workload.config, /*use_icg=*/false, threads, seed);
      const Point icg = RunTrial(app, workload.config, /*use_icg=*/true, threads, seed + 1);
      seed += 2;
      table.AddRow({std::to_string(threads), "C2 baseline", bench::Fmt(base.throughput, 0),
                    bench::Fmt(base.latency_ms), "-", "-"});
      table.AddRow({std::to_string(threads), "CC2 speculation", bench::Fmt(icg.throughput, 0),
                    bench::Fmt(icg.latency_ms),
                    "-" + bench::Fmt(100.0 * (1.0 - icg.latency_ms / base.latency_ms), 0) + "%",
                    bench::Fmt(icg.divergence_pct, 2) + "%"});
    }
    std::printf("--- %s / workload %s ---\n", app_name, workload.label);
    table.Print();
  }
}

}  // namespace
}  // namespace icg

int main() {
  using namespace icg;
  bench::PrintHeader(
      "Figure 11: speculation case studies — ad serving system and Twissandra",
      "Two-step reference fetch; CC2 speculates on the preliminary reference list.\n"
      "Paper's shape: ads ~100 ms -> ~60 ms (-40%) with a small throughput drop;\n"
      "Twissandra higher latencies (farther replicas), same relative gain;\n"
      "divergence consistently under 1%.");

  RunApp(App::kAds, "Ads system (FRK/IRL/VRG, client IRL)", BenchAdsConfig().num_profiles);
  RunApp(App::kTwissandra, "Twissandra (VRG/NCA/ORE, client IRL)",
         TwissandraConfig{}.num_users);
  return 0;
}
