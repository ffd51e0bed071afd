// Figure 8: efficiency (client<->replica bandwidth per operation) of the ICG
// implementation in Correctable Cassandra.
//
// Setup (§6.2.1): the divergence-maximizing conditions of Figure 7 (1K objects, Latest /
// Zipfian, 3 clients, thread sweep). Systems: C1 (single weak read, the conservative
// baseline), CC2 (ICG without optimization), and *CC2 (ICG with the confirmation
// optimization: a final view matching the preliminary digest is replaced by a small
// confirmation message).
//
// Paper's shape: CC2 costs up to +77% (workload A-Latest) / +90% (workload B) over C1;
// confirmations cut this to +27% / +15% — the savings shrink as divergence grows.
#include <string>
#include <vector>

#include "bench/scaffold.h"

namespace icg {
namespace {

constexpr int64_t kRecords = 1000;

// The IRL client's link kB per measured op and its result.
bench::RegionalTrial::Bandwidth MeasureEfficiency(const WorkloadConfig& workload_config,
                                                  KvMode mode, bool confirmations,
                                                  int total_threads, uint64_t seed) {
  bench::RegionalTrial trial(
      {.seed = seed, .binding = {.confirmations = confirmations}, .workload = workload_config});
  trial.AddLoad({.threads = total_threads / 3,
                 .duration = Seconds(45),
                 .warmup = Seconds(15),
                 .cooldown = 0},  // byte accounting runs to the trial end
                bench::RegionalSeeds(seed), bench::KvExecutors(mode));
  return trial.RunIrlBandwidth();
}

void RunWorkload(const char* name, const WorkloadConfig& base,
                 RequestDistribution distribution) {
  WorkloadConfig config = base;
  config.request_distribution = distribution;
  config.field_count = 10;  // YCSB default 1 KB records
  config.field_length = 100;

  bench::Table table({"threads", "C1 (kB/op)", "CC2 (kB/op)", "*CC2 (kB/op)", "CC2 overhead",
                      "*CC2 overhead", "divergence"});
  uint64_t seed = 800;
  for (const int threads : {30, 60, 120, 180, 240, 300}) {
    const auto c1 = MeasureEfficiency(config, KvMode::kWeakOnly, false, threads, seed++);
    const auto cc2 = MeasureEfficiency(config, KvMode::kIcg, false, threads, seed++);
    const auto cc2_opt = MeasureEfficiency(config, KvMode::kIcg, true, threads, seed++);
    table.AddRow({std::to_string(threads), bench::Fmt(c1.kb_per_op, 2),
                  bench::Fmt(cc2.kb_per_op, 2), bench::Fmt(cc2_opt.kb_per_op, 2),
                  "+" + bench::Fmt(100.0 * (cc2.kb_per_op / c1.kb_per_op - 1.0), 0) + "%",
                  "+" + bench::Fmt(100.0 * (cc2_opt.kb_per_op / c1.kb_per_op - 1.0), 0) + "%",
                  bench::Fmt(cc2_opt.irl.DivergencePercent(), 1) + "%"});
  }
  std::printf("--- %s / %s distribution ---\n", name, RequestDistributionName(distribution));
  table.Print();
}

}  // namespace
}  // namespace icg

int main() {
  using namespace icg;
  bench::PrintHeader(
      "Figure 8: efficiency (bandwidth overhead) of ICG in Correctable Cassandra",
      "IRL client's link bytes per operation; 1K objects; 1 KB records.\n"
      "Paper's shape: CC2 up to +77% (A) / +90% (B) over C1; the confirmation\n"
      "optimization (*CC2) reduces this to +27% (A-Latest, high divergence) / +15% (B).");

  RunWorkload("Workload A", WorkloadConfig::YcsbA(RequestDistribution::kLatest, kRecords),
              RequestDistribution::kLatest);
  RunWorkload("Workload A", WorkloadConfig::YcsbA(RequestDistribution::kZipfian, kRecords),
              RequestDistribution::kZipfian);
  RunWorkload("Workload B", WorkloadConfig::YcsbB(RequestDistribution::kLatest, kRecords),
              RequestDistribution::kLatest);
  RunWorkload("Workload B", WorkloadConfig::YcsbB(RequestDistribution::kZipfian, kRecords),
              RequestDistribution::kZipfian);
  return 0;
}
