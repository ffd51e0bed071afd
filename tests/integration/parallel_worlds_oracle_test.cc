// Randomized consistency oracle over parallel worlds: W independent sharded-Cassandra
// SimWorlds run to a common horizon by RunWorldsUntil at thread counts 0 (in order on
// the calling thread), 2, and 4. Each world carries the same 3-client random read/write
// load the batch oracle uses. Every thread count must (a) leave every invocation
// oracle-clean under the ICG contract (src/harness/icg_oracle.h), with per-key program
// order into replica state, and (b) produce a bit-for-bit identical outcome
// fingerprint: worlds share nothing, so threads may change wall time only.
//
// The RNG seed comes from ICG_ORACLE_SEED (default 12345); CI sweeps several seeds.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/harness/deployment.h"
#include "src/harness/executors.h"
#include "src/harness/icg_oracle.h"

namespace icg {
namespace {

constexpr int kWorlds = 3;
constexpr int kOps = 220;

// One world's stack, clients, and oracle. Worlds are independent: distinct seeds,
// distinct key spaces (shared key names, separate clusters).
struct WorldUnderTest {
  explicit WorldUnderTest(uint64_t seed)
      : world(seed), checker(SanctionedError::kNone, &world.loop()) {}

  SimWorld world;
  ContractChecker checker;
  std::unique_ptr<ShardedCassandraStack> stack;
  std::vector<CorrectableClient*> clients;
  std::unique_ptr<RandomKvLoad> load;
};

// Runs the full multi-world trial at one thread count and returns the concatenated
// world fingerprints, after sanity-checking the summed client stats.
std::string RunTrial(int threads, uint64_t seed) {
  SCOPED_TRACE("threads=" + std::to_string(threads) + " seed=" + std::to_string(seed));

  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  BatchConfig batch;
  batch.batch_window = Millis(2);

  std::vector<std::unique_ptr<WorldUnderTest>> worlds;
  for (int w = 0; w < kWorlds; ++w) {
    auto wut = std::make_unique<WorldUnderTest>(seed + static_cast<uint64_t>(w) * 977);
    wut->stack = std::make_unique<ShardedCassandraStack>(MakeShardedCassandraStack(
        wut->world, /*n_coordinators=*/3, KvConfig{}, binding, Region::kIreland,
        {Region::kFrankfurt, Region::kIreland, Region::kVirginia}, batch));
    auto& frk = AddShardedCassandraClient(wut->world, *wut->stack, binding,
                                          Region::kFrankfurt, batch);
    auto& vrg = AddShardedCassandraClient(wut->world, *wut->stack, binding,
                                          Region::kVirginia, batch);
    wut->clients = {wut->stack->client(), frk.client.get(), vrg.client.get()};
    RandomKvLoadSpec spec;
    spec.phases = {{0, Seconds(2), kOps}};
    wut->load = std::make_unique<RandomKvLoad>(wut->clients, &wut->checker, spec);
    wut->load->Preload(*wut->stack->cluster);
    worlds.push_back(std::move(wut));
  }

  Rng rng(seed * 41);
  std::vector<SimWorld*> sim_worlds;
  for (auto& wut : worlds) {
    wut->load->Schedule(rng);
    sim_worlds.push_back(&wut->world);
  }

  RunWorldsUntil(sim_worlds, Seconds(20), threads);

  ClientStats merged;
  std::ostringstream fingerprint;
  for (int w = 0; w < kWorlds; ++w) {
    WorldUnderTest& wut = *worlds[static_cast<size_t>(w)];
    const std::string context = "world" + std::to_string(w);
    EXPECT_EQ(wut.world.loop().pending_events(), 0u) << context << " did not drain";
    wut.checker.Finish();
    wut.checker.CheckProgramOrder(*wut.stack->cluster);
    EXPECT_EQ(wut.checker.violations().total(), 0) << context << ": " << wut.checker.Report();
    ClientStats world_stats;
    for (const CorrectableClient* client : wut.clients) {
      AddClientStats(world_stats, client->stats());
    }
    EXPECT_EQ(world_stats.invocations, kOps) << context;
    AddClientStats(merged, world_stats);
    fingerprint << "==" << context << "==" << wut.checker.fingerprint();
  }

  // Summed stats cover every invocation the trial issued, with views delivered.
  EXPECT_EQ(merged.invocations, kWorlds * kOps);
  EXPECT_GE(merged.views_delivered, merged.invocations);
  EXPECT_EQ(merged.errors, 0);

  return fingerprint.str();
}

TEST(ParallelWorldsOracle, ThreadCountsAgreeBitForBit) {
  const uint64_t seed = OracleSeed();
  const std::string sequential = RunTrial(/*threads=*/0, seed);
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(RunTrial(/*threads=*/2, seed), sequential);
  EXPECT_EQ(RunTrial(/*threads=*/4, seed), sequential);
}

}  // namespace
}  // namespace icg
