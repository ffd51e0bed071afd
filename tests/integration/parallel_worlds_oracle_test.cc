// Randomized consistency oracle over parallel worlds: W independent sharded-Cassandra
// SimWorlds run to a common horizon by RunWorldsUntil at thread counts 0 (in order on
// the calling thread), 2, and 4. Each world carries the same 3-client random read/write
// load the batch oracle uses. Every thread count must (a) leave every observation
// oracle-clean — weakest-first monotone delivery, exactly one terminal, per-key program
// order into replica state — and (b) produce a bit-for-bit identical outcome
// fingerprint: worlds share nothing, so threads may change wall time only.
//
// The RNG seed comes from ICG_ORACLE_SEED (default 12345); CI sweeps several seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/harness/deployment.h"
#include "src/harness/executors.h"

namespace icg {
namespace {

uint64_t OracleSeed() {
  const char* env = std::getenv("ICG_ORACLE_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 12345;
}

constexpr int kWorlds = 3;
constexpr int kKeys = 39;
constexpr int kClients = 3;
constexpr int kOps = 220;

std::string OracleKey(int index) { return "okey" + std::to_string(index); }

struct Observation {
  bool is_write = false;
  std::string key;
  std::string written_value;
  ConsistencyLevel weakest = ConsistencyLevel::kStrong;
  ConsistencyLevel strongest = ConsistencyLevel::kStrong;
  std::vector<ConsistencyLevel> delivered;
  int finals = 0;
  int errors = 0;
  bool view_after_terminal = false;
  OpResult final_value;
  SimTime final_at = -1;  // virtual delivery time: part of the fingerprint
};

void Observe(Correctable<OpResult> c, const std::shared_ptr<Observation>& obs,
             EventLoop* loop) {
  c.SetCallbacks(
      [obs](const View<OpResult>& v) {
        if (obs->finals + obs->errors > 0) obs->view_after_terminal = true;
        obs->delivered.push_back(v.level);
      },
      [obs, loop](const View<OpResult>& v) {
        if (obs->finals + obs->errors > 0) obs->view_after_terminal = true;
        obs->finals++;
        obs->delivered.push_back(v.level);
        obs->final_value = v.value;
        obs->final_at = loop->Now();
      },
      [obs](const Status&) {
        if (obs->finals + obs->errors > 0) obs->view_after_terminal = true;
        obs->errors++;
      });
}

void CheckObservation(const Observation& obs, const std::string& context) {
  SCOPED_TRACE(context + " key=" + obs.key);
  EXPECT_EQ(obs.finals + obs.errors, 1) << "invocation must close exactly once";
  EXPECT_EQ(obs.errors, 0) << "no failure injected, so nothing may fail";
  EXPECT_FALSE(obs.view_after_terminal);
  for (size_t i = 1; i < obs.delivered.size(); ++i) {
    EXPECT_TRUE(IsStrongerOrEqual(obs.delivered[i], obs.delivered[i - 1]))
        << "view level regressed at position " << i;
  }
  if (obs.finals == 1) {
    ASSERT_FALSE(obs.delivered.empty());
    EXPECT_EQ(obs.delivered.back(), obs.strongest);
    for (const ConsistencyLevel level : obs.delivered) {
      EXPECT_TRUE(IsStrongerOrEqual(obs.strongest, level));
      EXPECT_TRUE(IsStrongerOrEqual(level, obs.weakest));
    }
  }
}

// One world's stack, clients, and bookkeeping. Worlds are independent: distinct seeds,
// distinct key spaces (shared key names, separate clusters).
struct WorldUnderTest {
  explicit WorldUnderTest(uint64_t seed) : world(seed) {}

  SimWorld world;
  std::unique_ptr<ShardedCassandraStack> stack;
  std::vector<CorrectableClient*> clients;
  std::vector<std::shared_ptr<Observation>> observations;
  std::shared_ptr<std::map<std::string, std::vector<std::string>>> submitted =
      std::make_shared<std::map<std::string, std::vector<std::string>>>();
};

// Everything observable about one world's run, serialized in creation order. Equal
// strings across thread counts == bit-for-bit identical outcomes.
std::string Fingerprint(const WorldUnderTest& wut) {
  std::ostringstream out;
  for (const auto& obs : wut.observations) {
    out << obs->key << (obs->is_write ? "W" : "R") << "[";
    for (const ConsistencyLevel level : obs->delivered) {
      out << static_cast<int>(level);
    }
    out << "]=" << obs->final_value.value << "#" << obs->final_value.version.timestamp
        << "." << obs->final_value.version.writer << "@" << obs->final_at << ";";
  }
  return out.str();
}

void ScheduleWorldLoad(WorldUnderTest& wut, Rng& rng) {
  int write_counter = 0;
  for (int i = 0; i < kOps; ++i) {
    const SimDuration at = static_cast<SimDuration>(rng.NextBounded(Seconds(2)));
    const size_t client_index = static_cast<size_t>(rng.NextBounded(kClients));
    const bool is_write = rng.NextBool(0.25);
    const int flavor = static_cast<int>(rng.NextBounded(3));
    int key_index = static_cast<int>(rng.NextBounded(kKeys));
    if (is_write) {
      key_index = (key_index / kClients) * kClients + static_cast<int>(client_index);
    }
    const std::string key = OracleKey(key_index);

    auto obs = std::make_shared<Observation>();
    obs->is_write = is_write;
    obs->key = key;
    wut.observations.push_back(obs);
    CorrectableClient* client = wut.clients[client_index];
    EventLoop* loop = &wut.world.loop();

    if (is_write) {
      const std::string value = "c" + std::to_string(client_index) + "-" +
                                std::to_string(write_counter++);
      obs->written_value = value;
      obs->weakest = obs->strongest = ConsistencyLevel::kStrong;
      loop->Schedule(at, [client, loop, key, value, obs, submitted = wut.submitted]() {
        (*submitted)[key].push_back(value);
        Observe(client->InvokeStrong(Operation::Put(key, value)), obs, loop);
      });
    } else if (flavor == 0) {
      obs->weakest = obs->strongest = ConsistencyLevel::kWeak;
      loop->Schedule(at, [client, loop, key, obs]() {
        Observe(client->InvokeWeak(Operation::Get(key)), obs, loop);
      });
    } else if (flavor == 1) {
      obs->weakest = obs->strongest = ConsistencyLevel::kStrong;
      loop->Schedule(at, [client, loop, key, obs]() {
        Observe(client->InvokeStrong(Operation::Get(key)), obs, loop);
      });
    } else {
      obs->weakest = ConsistencyLevel::kWeak;
      obs->strongest = ConsistencyLevel::kStrong;
      loop->Schedule(at, [client, loop, key, obs]() {
        Observe(client->Invoke(Operation::Get(key)), obs, loop);
      });
    }
  }
}

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
    for (int i = 0; i < kKeys; ++i) {
      wut->stack->cluster->Preload(OracleKey(i), "init");
    }
    worlds.push_back(std::move(wut));
  }

  Rng rng(seed * 41);
  std::vector<SimWorld*> sim_worlds;
  for (auto& wut : worlds) {
    ScheduleWorldLoad(*wut, rng);
    sim_worlds.push_back(&wut->world);
  }

  RunWorldsUntil(sim_worlds, Seconds(20), threads);

  ClientStats merged;
  std::ostringstream fingerprint;
  for (int w = 0; w < kWorlds; ++w) {
    WorldUnderTest& wut = *worlds[static_cast<size_t>(w)];
    const std::string context = "world" + std::to_string(w);
    EXPECT_EQ(wut.world.loop().pending_events(), 0u) << context << " did not drain";
    for (const auto& obs : wut.observations) {
      CheckObservation(*obs, context);
    }
    for (const auto& [key, values] : *wut.submitted) {
      for (const auto& replica : wut.stack->cluster->replicas()) {
        const auto stored = replica->LocalGet(key);
        EXPECT_TRUE(stored.has_value()) << key;
        if (!stored.has_value()) continue;
        EXPECT_EQ(stored->value, values.back())
            << "replica diverged from program order for " << key << " (" << context << ")";
      }
    }
    ClientStats world_stats;
    for (const CorrectableClient* client : wut.clients) {
      AddClientStats(world_stats, client->stats());
    }
    EXPECT_EQ(world_stats.invocations, kOps) << context;
    AddClientStats(merged, world_stats);
    fingerprint << "==" << context << "==" << Fingerprint(wut);
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
