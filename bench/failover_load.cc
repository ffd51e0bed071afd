// Coordinator crash + failover under load: durability cost, detection, failover dip,
// and post-recovery throughput for a sharded deployment whose coordinators log every
// write to a WAL before acking.
//
// Setup: one Cassandra-style cluster (FRK/IRL/VRG replicas, all three coordinators),
// three routed clients (one per region) driving uniform-key YCSB-B in a closed loop
// with durable writes (fsync charged on the coordinator before the ack) and the
// heartbeat failure detector armed. At one third of the trial, one coordinator is
// killed (kill -9: volatile state gone, WAL and snapshot survive); the detector evicts
// it after the configured miss window, the ring re-forms around the survivors, and
// in-flight invocations against the corpse resolve by client timeout or queue-limit
// shedding — never by a dangling invocation. At two thirds, the node restarts: it
// replays snapshot + WAL, anti-entropy syncs both directions, and rejoins the ring at
// a fresh epoch.
//
// Every invocation runs under the ICG contract oracle (src/harness/icg_oracle.h:
// weakest-first monotone view levels, exactly one terminal, finals at the strongest
// level); every acked write is remembered and checked against the converged replicas
// at the end, version and value. The
// bench FAILS on any oracle violation, on any acked-write loss, if detection takes
// longer than the configured miss window (plus slack), or if post-recovery steady-state
// throughput falls below 0.9x the pre-crash plateau.
//
// Flags: --smoke shortens the trial for CI smoke runs (the JSON summary is still
// written); output includes BENCH_failover_load.json, with the world's event journal.
#include <string>

#include "bench/scaffold.h"

namespace icg {
namespace {

constexpr int64_t kRecords = 8000;
constexpr SimDuration kBucket = Millis(250);

}  // namespace
}  // namespace icg

int main(int argc, char** argv) {
  using namespace icg;
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");

  const int threads = smoke ? 48 : 64;
  const SimDuration duration = smoke ? Seconds(12) : Seconds(36);
  const SimDuration warmup = smoke ? Seconds(2) : Seconds(5);
  const SimDuration crash_at = duration / 3;
  const SimDuration recover_at = 2 * duration / 3;
  // Transition windows excluded from steady state; short enough in smoke mode that a
  // post-recovery measurement window remains before the cooldown.
  const SimDuration settle = smoke ? Seconds(1) : Seconds(3);
  const uint64_t seed = 42;

  bench::PrintHeader(
      "Failover: coordinator crash + WAL recovery under YCSB load",
      "Uniform-key YCSB-B, 3 routed clients (one per region), closed loop, durable\n"
      "writes (WAL fsync before ack). One coordinator is killed at t=1/3 and restarted\n"
      "at t=2/3: heartbeat eviction, ring re-formation, snapshot+WAL replay, anti-\n"
      "entropy, re-admission. Every invocation is oracle-checked and every acked write\n"
      "must survive.");

  KvConfig kv;
  kv.wal_fsync_service = Micros(120);  // real durable writes: fsync charged before ack
  kv.snapshot_every = 512;             // checkpoint cadence keeps replay tails bounded
  bench::RegionalTrial trial(
      {.seed = seed,
       .coordinators = 3,
       .kv = kv,
       .workload = WorkloadConfig::YcsbB(RequestDistribution::kUniform, kRecords)});
  ShardedCassandraStack& stack = trial.sharded();
  // A corpse answers nothing: in-flight invocations against it must resolve by client
  // timeout, and a bounded shard queue sheds the backlog that builds before eviction.
  for (CorrectableClient* client : trial.clients()) {
    client->SetTimeout(Seconds(2));
  }
  stack.SetShardQueueLimit(256);
  stack.EnableFailureDetection();

  // Timeouts and sheds during the failover window are expected: an errored write was
  // never acked, so durability promises nothing about it.
  ContractChecker checker(SanctionedError::kAny, &trial.world().loop());
  trial.AddLoad({.threads = threads, .duration = duration, .warmup = warmup, .cooldown = warmup},
                bench::RegionalSeeds(seed), bench::OracleExecutors(&checker));

  const NodeId victim = stack.coordinator_ids().front();
  EventLoop& loop = trial.world().loop();
  loop.Schedule(crash_at, [&stack, victim]() { stack.CrashCoordinator(victim); });
  loop.Schedule(recover_at, [&stack, victim]() { stack.RecoverCoordinator(victim); });
  // Stop the heartbeat chain once the measured window is over so the loop can drain.
  loop.Schedule(duration + warmup + Seconds(1), [&stack]() { stack.DisableFailureDetection(); });

  const RunnerResult load = trial.Run();
  checker.Finish();
  const bench::TimeBuckets completions = bench::CompletionBuckets(checker, kBucket, duration);

  const double pre_crash = completions.RateOver(warmup, crash_at);
  const double outage = completions.RateOver(crash_at + settle, recover_at);
  const double post_recovery = completions.RateOver(recover_at + settle, duration - warmup);
  // Worst bucket right after the crash, and time until the completion rate first
  // reached the pre-crash plateau again after the restart.
  const double dip = completions.Dip(crash_at, settle, pre_crash);
  const double rejoin_recovery_ms =
      completions.MillisToReach(recover_at, settle, 0.9 * pre_crash);

  // Failover bookkeeping from the world's journal: detection latency and rejoin.
  const Journal& journal = trial.world().journal();
  SimTime crashed_at = -1;
  double detection_ms = -1.0;
  bool rejoined = false;
  for (const JournalEntry& entry : journal.entries()) {
    if (entry.node != victim) continue;
    if (entry.kind == EventKind::kCrash) crashed_at = entry.at;
    if (entry.kind == EventKind::kDetected) detection_ms = ToMillis(entry.at - crashed_at);
    if (entry.kind == EventKind::kRejoined) rejoined = true;
  }
  const KvReplica* recovered = nullptr;
  int64_t snapshots_taken = 0;  // over every replica: bases + deltas
  int64_t delta_snapshots = 0;
  int64_t snapshot_entries_written = 0;
  for (const auto& replica : stack.cluster->replicas()) {
    if (replica->id() == victim) recovered = replica.get();
    snapshots_taken += replica->counters().snapshots_taken;
    delta_snapshots += replica->counters().delta_snapshots;
    snapshot_entries_written += replica->counters().snapshot_entries_written;
  }

  // The durability contract: every replica holds at least the highest version a client
  // saw acked for each key, and exactly the acked value at that version.
  const int64_t acked_keys = checker.CheckAckedWrites(*stack.cluster);
  const ContractViolations& violations = checker.violations();
  const int64_t acked_lost = violations.acked_lost + violations.acked_value;

  bench::Table table({"phase", "throughput (ops/s)", "notes"});
  table.AddRow({"pre-crash (3 coordinators)", bench::Fmt(pre_crash, 0),
                "durable writes, detector armed"});
  table.AddRow({"crash dip", bench::Fmt(dip, 0),
                "worst " + bench::Fmt(ToMillis(kBucket), 0) + " ms bucket after kill -9"});
  table.AddRow({"outage (2 coordinators)", bench::Fmt(outage, 0),
                "detection " + bench::Fmt(detection_ms, 0) + " ms, ring re-formed"});
  table.AddRow({"post-recovery (3 coordinators)", bench::Fmt(post_recovery, 0),
                "ring epoch " + std::to_string(stack.ring_epoch())});
  table.Print();

  const bool oracle_clean = violations.total() == 0;  // acked loss included
  const double detection_bound_ms = 5 * 50.0;  // miss window (3x50ms) plus probe slack
  const bool detected = detection_ms >= 0 && detection_ms <= detection_bound_ms;
  const bool recovered_clean = rejoined && recovered != nullptr &&
                               !recovered->crashed() &&
                               recovered->last_recovery().bootstrap_complete;
  const bool throughput_back = post_recovery >= 0.9 * pre_crash;

  std::printf("ops issued %lld, completed %lld (%lld errors during failover); oracle: %s\n",
              static_cast<long long>(bench::OracleIssued(checker)),
              static_cast<long long>(bench::OracleCompleted(checker)),
              static_cast<long long>(checker.errors()),
              oracle_clean ? "clean (no duplication, reordering, or acked loss)"
                           : ("VIOLATED: " + checker.Report()).c_str());
  std::printf("detection %s ms (bound %.0f), rejoined=%s, wal replayed %llu records, "
              "bootstrap merged %llu keys\n",
              detection_ms >= 0 ? bench::Fmt(detection_ms, 0).c_str() : "n/a",
              detection_bound_ms, rejoined ? "yes" : "no",
              recovered != nullptr
                  ? static_cast<unsigned long long>(recovered->last_recovery().wal_records_replayed)
                  : 0ull,
              recovered != nullptr
                  ? static_cast<unsigned long long>(recovered->last_recovery().bootstrap_keys_merged)
                  : 0ull);
  std::printf("snapshots %lld (%lld deltas), %lld entries serialized\n",
              static_cast<long long>(snapshots_taken), static_cast<long long>(delta_snapshots),
              static_cast<long long>(snapshot_entries_written));
  std::printf("acked writes checked %lld, lost %lld; post-recovery %.0f ops/s %s 0.9x "
              "pre-crash %.0f ops/s (%.2fx)\n",
              static_cast<long long>(acked_keys), static_cast<long long>(acked_lost),
              post_recovery, throughput_back ? ">=" : "BELOW", pre_crash,
              pre_crash > 0 ? post_recovery / pre_crash : 0.0);

  bench::JsonSummary json("failover_load");
  json.Add("threads_per_client", static_cast<int64_t>(threads));
  json.Add("duration_s", ToSeconds(duration), 1);
  json.AddString("workload", "ycsb-b-uniform-durable");
  json.Add("pre_crash.throughput_ops", pre_crash, 1);
  json.Add("outage.throughput_ops", outage, 1);
  json.Add("post_recovery.throughput_ops", post_recovery, 1);
  json.Add("transition.dip_ops", dip, 1);
  json.Add("transition.detection_ms", detection_ms, 0);
  json.Add("transition.rejoin_recovery_ms", rejoin_recovery_ms, 0);
  json.Add("recovery.wal_records_replayed",
           recovered != nullptr
               ? static_cast<int64_t>(recovered->last_recovery().wal_records_replayed)
               : 0);
  json.Add("recovery.bootstrap_keys_merged",
           recovered != nullptr
               ? static_cast<int64_t>(recovered->last_recovery().bootstrap_keys_merged)
               : 0);
  json.Add("recovery.snapshot_entries",
           recovered != nullptr
               ? static_cast<int64_t>(recovered->last_recovery().snapshot_entries)
               : 0);
  json.Add("snapshot.taken", snapshots_taken);
  json.Add("snapshot.deltas", delta_snapshots);
  json.Add("snapshot.entries_written", snapshot_entries_written);
  json.Add("speedup_post_vs_pre", pre_crash > 0 ? post_recovery / pre_crash : 0.0, 2);
  json.Add("ring_epoch_after", static_cast<int64_t>(stack.ring_epoch()));
  json.Add("durability.acked_keys", acked_keys);
  json.Add("durability.acked_lost", acked_lost);
  bench::AddOracleJson(json, checker);
  bench::AddLoadJson(json, load);
  json.AddJson("journal", journal.ToJson());
  json.Write();

  return oracle_clean && detected && recovered_clean && throughput_back ? 0 : 1;
}
