// The bench scaffold for the paper's "3 clients, one per region" Cassandra trials
// (§6.2.1): one builder for the flat and the sharded deployments, plus the oracle
// reporting shared by the membership-change benches (rebalance_load, failover_load,
// autoscale_load).
#ifndef ICG_BENCH_SCAFFOLD_H_
#define ICG_BENCH_SCAFFOLD_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/harness/deployment.h"
#include "src/harness/executors.h"
#include "src/harness/icg_oracle.h"
#include "src/ycsb/multi_runner.h"

namespace icg::bench {

// The per-client YCSB seeds most trials use: seed*3 + 1, 2, 3 for IRL, FRK and VRG.
inline std::array<uint64_t, 3> RegionalSeeds(uint64_t seed) {
  return {seed * 3 + 1, seed * 3 + 2, seed * 3 + 3};
}

struct RegionalTrialConfig {
  uint64_t seed = 0;  // the world's seed
  // 0 builds the flat deployment: each client has its own remote coordinator (IRL->FRK,
  // FRK->VRG, VRG->IRL). n >= 1 builds the sharded one: every client routes per key
  // across the first n replicas.
  int coordinators = 0;
  KvConfig kv{};
  CassandraBindingConfig binding{};  // CC2 by default: strong reads at R=2
  BatchConfig batch{};  // sharded deployments only
  // Preloaded on every replica before any load, and every client's stream.
  WorkloadConfig workload{};
};

// Builds the executor through which the load drives one regional client.
using ExecutorFactory = std::function<OpExecutor(CorrectableClient*)>;

inline ExecutorFactory KvExecutors(KvMode mode) {
  return [mode](CorrectableClient* client) { return MakeKvExecutor(client, mode); };
}

// ICG executors with every invocation checked by `checker`.
inline ExecutorFactory OracleExecutors(ContractChecker* checker) {
  return [checker](CorrectableClient* client) {
    return MakeOracleIcgExecutor(client, checker);
  };
}

// One trial: a SimWorld, the Cassandra replicas in FRK/IRL/VRG, one client per region,
// the YCSB preload, and (after AddLoad) a closed-loop MultiRunner over the three clients.
class RegionalTrial {
 public:
  explicit RegionalTrial(const RegionalTrialConfig& config)
      : workload_(config.workload), world_(config.seed) {
    if (config.coordinators == 0) {
      flat_ = std::make_unique<CassandraStack>(MakeCassandraStack(
          world_, config.kv, config.binding, Region::kIreland, Region::kFrankfurt));
      frk_ = std::make_unique<CassandraClientEndpoint>(AddCassandraClient(
          world_, *flat_, config.binding, Region::kFrankfurt, Region::kVirginia));
      vrg_ = std::make_unique<CassandraClientEndpoint>(AddCassandraClient(
          world_, *flat_, config.binding, Region::kVirginia, Region::kIreland));
      clients_ = {flat_->client.get(), frk_->client.get(), vrg_->client.get()};
      PreloadYcsbDataset(flat_->cluster.get(), workload_);
    } else {
      sharded_ = std::make_unique<ShardedCassandraStack>(MakeShardedCassandraStack(
          world_, config.coordinators, config.kv, config.binding, Region::kIreland,
          {Region::kFrankfurt, Region::kIreland, Region::kVirginia}, config.batch));
      ShardedEndpoint& frk = AddShardedCassandraClient(world_, *sharded_, config.binding,
                                                       Region::kFrankfurt, config.batch);
      ShardedEndpoint& vrg = AddShardedCassandraClient(world_, *sharded_, config.binding,
                                                       Region::kVirginia, config.batch);
      clients_ = {sharded_->client(), frk.client.get(), vrg.client.get()};
      PreloadYcsbDataset(sharded_->cluster.get(), workload_);
    }
  }

  RegionalTrial(const RegionalTrial&) = delete;
  RegionalTrial& operator=(const RegionalTrial&) = delete;

  SimWorld& world() { return world_; }
  // The IRL, FRK and VRG clients, in that order.
  const std::array<CorrectableClient*, 3>& clients() const { return clients_; }
  ShardedCassandraStack& sharded() { return *sharded_; }
  MultiRunner& runner() { return *runner_; }

  // Registers the closed-loop load: client i runs the workload from `seeds[i]` through
  // `make_executor(clients()[i])`. Nothing starts until Run or runner().Begin().
  void AddLoad(const RunnerConfig& runner_config, const std::array<uint64_t, 3>& seeds,
               const ExecutorFactory& make_executor) {
    runner_config_ = runner_config;
    runner_ = std::make_unique<MultiRunner>(&world_.loop(), runner_config);
    for (size_t i = 0; i < clients_.size(); ++i) {
      runner_->AddClient(workload_, seeds[i], make_executor(clients_[i]));
    }
  }

  // Runs the load to its end plus drain time; returns the merged result of all clients.
  RunnerResult Run() { return runner_->Run(); }

  // Figure 8's measurement (flat deployment): runs the load with the network's byte
  // counters restarted at the warmup boundary, so kB/op covers the measured ops, and
  // returns the IRL client's result with its link kB per measured op.
  struct Bandwidth {
    RunnerResult irl;
    double kb_per_op = 0;
  };
  Bandwidth RunIrlBandwidth() {
    runner_->Begin();
    world_.loop().Schedule(runner_config_.warmup,
                           [this]() { world_.network().ResetStats(); });
    world_.loop().RunUntil(world_.loop().Now() + runner_config_.duration + Seconds(5));
    Bandwidth bandwidth;
    bandwidth.irl = runner_->CollectClient(0);
    bandwidth.kb_per_op = bandwidth.irl.measured_ops == 0
                              ? 0.0
                              : static_cast<double>(flat_->kv_client->LinkBytes()) /
                                    static_cast<double>(bandwidth.irl.measured_ops) / 1000.0;
    return bandwidth;
  }

 private:
  WorkloadConfig workload_;
  RunnerConfig runner_config_;
  SimWorld world_;
  std::unique_ptr<CassandraStack> flat_;
  std::unique_ptr<CassandraClientEndpoint> frk_;
  std::unique_ptr<CassandraClientEndpoint> vrg_;
  std::unique_ptr<ShardedCassandraStack> sharded_;
  std::array<CorrectableClient*, 3> clients_{};
  std::unique_ptr<MultiRunner> runner_;
};

// --- Oracle reporting of the membership-change benches -------------------------------

// Completions of every closed invocation the oracle saw, bucketed over virtual time.
inline TimeBuckets CompletionBuckets(const ContractChecker& checker, SimDuration width,
                                     SimTime horizon) {
  TimeBuckets completions(width, horizon);
  for (const ContractChecker::Invocation& inv : checker.invocations()) {
    if (inv.closed()) completions.Add(inv.closed_at);
  }
  return completions;
}

inline int64_t OracleIssued(const ContractChecker& checker) {
  return static_cast<int64_t>(checker.invocations().size());
}
inline int64_t OracleCompleted(const ContractChecker& checker) {
  return checker.finals() + checker.errors();
}

// The oracle.* block every oracle-checked load bench writes.
inline void AddOracleJson(JsonSummary& json, const ContractChecker& checker) {
  const ContractViolations& violations = checker.violations();
  json.Add("oracle.issued", OracleIssued(checker));
  json.Add("oracle.completed", OracleCompleted(checker));
  json.Add("oracle.errors", checker.errors());
  json.Add("oracle.unsanctioned_errors", violations.unsanctioned_errors);
  json.Add("oracle.duplicate_finals", violations.duplicate_finals);
  json.Add("oracle.monotonicity_violations", violations.regressions);
  json.Add("oracle.views_after_terminal", violations.after_terminal);
  json.Add("oracle.violations", violations.total());
}

// The load.* block: a closed-loop trial's merged result.
inline void AddLoadJson(JsonSummary& json, const RunnerResult& load) {
  json.Add("load.errors", load.errors);
  json.AddLatencies("load", load.throughput_ops, load.preliminary, load.final_view);
}

}  // namespace icg::bench

#endif  // ICG_BENCH_SCAFFOLD_H_
