// Self-driving control plane under a 10x load ramp: the Orchestrator runs inside a
// sharded deployment (5 replicas, 2 starting coordinators, 3 regional clients) while the offered load steps from ~150 ops/s to ~1500 ops/s
// mid-run and back. Arrivals are open-loop and hand-scheduled in virtual time — the
// ramp does not wait for completions, so the shard queues genuinely overflow — and
// every overload shed is retried with a virtual-time backoff, exactly the workload the
// controller is meant to absorb.
//
// What the run must show (exit-code gated):
//   - throughput FOLLOWS the ramp within 2 control intervals (500ms of virtual time):
//     the completion rate during the ramp reaches >= 5x the pre-ramp plateau;
//   - the controller acted: the ramp provokes at least one batch-window widen and at
//     least one coordinator scale-out (sustained sheds -> capacity);
//   - sheds decay to ZERO once the controller has scaled: no shed at all from one
//     second after the load returns to the low rate;
//   - the ICG contract oracle (src/harness/icg_oracle.h) stays clean through every
//     controller action: monotone weakest-first views, exactly one terminal per
//     invocation, finals at the strongest level, no thin-air reads, per-key program
//     order into replica state, no error other than a retryable overload shed.
//
// Flags: --smoke shortens the trial for CI smoke runs (the JSON summary is still
// written); output includes BENCH_autoscale_load.json with the phase throughputs, the
// ramp-following delay, shed decay, the oracle counters, and the world's event journal
// (the controller's applied actions and the ring epochs they installed).
#include <string>

#include "bench/scaffold.h"
#include "src/common/random.h"
#include "src/harness/orchestrator.h"

namespace icg {
namespace {

constexpr SimDuration kBucket = Millis(250);

}  // namespace
}  // namespace icg

int main(int argc, char** argv) {
  using namespace icg;
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");

  const uint64_t seed = 42;
  const double low_rate = 150.0;
  const double high_rate = 1500.0;
  const SimDuration phase_low = smoke ? Seconds(2) : Seconds(4);
  const SimDuration phase_ramp = smoke ? Millis(1500) : Seconds(4);
  const SimDuration phase_tail = smoke ? Seconds(2) : Seconds(4);
  const SimTime ramp_start = phase_low;
  const SimTime ramp_end = ramp_start + phase_ramp;
  const SimTime load_end = ramp_end + phase_tail;
  // Settle window: long enough for the shrink + scale-in cascade to hand back the
  // quiescent configuration before the run ends.
  const SimTime run_end = load_end + (smoke ? Seconds(3) : Seconds(5));

  bench::PrintHeader(
      "Self-driving control plane: 10x load ramp",
      "Open-loop arrivals against a 5-replica deployment starting at 2\n"
      "coordinators. Offered load steps 150 -> 1500 -> 150 ops/s; the Orchestrator\n"
      "samples router snapshots every 250ms of virtual time and drives the batch\n"
      "window and the coordinator ring itself. Sheds retry; the oracle rides along.");

  SimWorld world(seed);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  auto stack = MakeShardedCassandraStack(
      world, /*n_coordinators=*/2, KvConfig{}, binding, Region::kIreland,
      {Region::kFrankfurt, Region::kIreland, Region::kVirginia, Region::kCalifornia,
       Region::kOregon});
  auto& frk = AddShardedCassandraClient(world, stack, binding, Region::kFrankfurt);
  auto& vrg = AddShardedCassandraClient(world, stack, binding, Region::kVirginia);
  stack.SetShardQueueLimit(8);

  // Hand-scheduled open-loop arrivals: uniform within each phase, writes partitioned
  // per client, reads through invoke(). The schedule is fixed up front — completions
  // never gate arrivals — and every shed retries after 50ms of virtual time.
  RandomKvLoadSpec spec;
  spec.key_prefix = "akey";
  spec.keys = 48;
  spec.phases = {
      {0, phase_low, static_cast<int>(low_rate * ToSeconds(phase_low))},
      {ramp_start, phase_ramp, static_cast<int>(high_rate * ToSeconds(phase_ramp))},
      {ramp_end, phase_tail, static_cast<int>(low_rate * ToSeconds(phase_tail))},
  };
  spec.mixed_reads = false;
  spec.shed_retry = Millis(50);
  ContractChecker checker(SanctionedError::kOverloaded, &world.loop());
  RandomKvLoad load({stack.client(), frk.client.get(), vrg.client.get()}, &checker, spec);
  load.Preload(*stack.cluster);

  Orchestrator orchestrator(&world, &stack);  // scale-in floor: the starting 2
  orchestrator.Start();

  Rng rng(seed * 7);
  load.Schedule(rng);

  world.loop().RunUntil(run_end);
  orchestrator.Stop();
  world.loop().Run();
  checker.Finish();
  checker.CheckProgramOrder(*stack.cluster);

  bench::TimeBuckets completions(kBucket, run_end);
  for (const ContractChecker::Invocation& inv : checker.invocations()) {
    if (inv.finals > 0) completions.Add(inv.closed_at);
  }
  bench::TimeBuckets sheds(kBucket, run_end);
  for (const SimTime at : load.shed_times()) {
    sheds.Add(at);
  }

  // Phase throughputs from the completion buckets. "Follows within 2 control
  // intervals" is the gate: by ramp_start + 500ms the completion rate must already be
  // tracking the new offered load.
  const double pre_ramp = completions.RateOver(Seconds(1), ramp_start);
  const SimTime follow_from = ramp_start + 2 * kControlInterval;
  const double ramp_rate = completions.RateOver(follow_from, ramp_end);
  const double tail_rate = completions.RateOver(ramp_end + Seconds(1), load_end);
  const double follow_ratio = pre_ramp > 0 ? ramp_rate / pre_ramp : 0.0;

  // When did throughput first track the ramp? First bucket at or after ramp_start
  // whose rate reaches 5x the pre-ramp plateau (ramp_start is bucket-aligned).
  const double followed_after_ms =
      completions.MillisToReach(ramp_start, phase_ramp, 5.0 * pre_ramp);

  // Shed decay: nothing may shed from one second after the load returns to low rate.
  const int64_t sheds_after_settle = sheds.CountFrom(ramp_end + Seconds(1));

  const Journal& journal = world.journal();
  const int64_t widens = journal.Count(EventKind::kWiden);
  const int64_t shrinks = journal.Count(EventKind::kShrink);
  const int64_t scale_outs = journal.Count(EventKind::kScaleOut);
  const int64_t scale_ins = journal.Count(EventKind::kScaleIn);

  bench::Table table({"phase", "throughput (ops/s)", "notes"});
  table.AddRow({"pre-ramp (150 offered)", bench::Fmt(pre_ramp, 0),
                "2 coordinators, window rung 0"});
  table.AddRow({"ramp (1500 offered)", bench::Fmt(ramp_rate, 0),
                "measured from 2 control intervals in"});
  table.AddRow({"post-ramp (150 offered)", bench::Fmt(tail_rate, 0),
                "after the controller scaled"});
  table.Print();

  std::printf("controller: %lld widen, %lld shrink, %lld scale-out, %lld scale-in; final"
              " ring %zu coordinators, window rung %zu, epoch %llu\n",
              static_cast<long long>(widens), static_cast<long long>(shrinks),
              static_cast<long long>(scale_outs), static_cast<long long>(scale_ins),
              stack.coordinator_ids().size(), orchestrator.window_index(),
              static_cast<unsigned long long>(stack.ring_epoch()));
  for (const JournalEntry& entry : journal.entries()) {
    std::printf("  t=%6.2fs %-9s node=%d epoch=%llu detail=%lld\n", ToSeconds(entry.at),
                EventKindName(entry.kind), entry.node,
                static_cast<unsigned long long>(entry.epoch),
                static_cast<long long>(entry.detail));
  }
  std::printf("sheds: %lld total (all retried), %lld after settle; throughput followed"
              " the ramp %s\n",
              static_cast<long long>(load.sheds()),
              static_cast<long long>(sheds_after_settle),
              followed_after_ms >= 0
                  ? ("in " + bench::Fmt(followed_after_ms, 0) + " ms").c_str()
                  : "NEVER");

  const ContractViolations& violations = checker.violations();
  const bool oracle_clean =
      violations.total() == 0 && checker.finals() == load.operations();
  const bool followed =
      follow_ratio >= 5.0 && followed_after_ms >= 0 &&
      followed_after_ms <= ToMillis(2 * kControlInterval);
  const bool controller_acted = widens >= 1 && scale_outs >= 1;
  const bool sheds_decayed = load.sheds() > 0 && sheds_after_settle == 0;
  std::printf("oracle: %s (%lld/%lld completed); gates: followed=%s acted=%s"
              " sheds_decayed=%s\n",
              oracle_clean ? "clean" : ("VIOLATED: " + checker.Report()).c_str(),
              static_cast<long long>(checker.finals()),
              static_cast<long long>(load.operations()), followed ? "yes" : "NO",
              controller_acted ? "yes" : "NO", sheds_decayed ? "yes" : "NO");

  bench::JsonSummary json("autoscale_load");
  json.AddString("mode", smoke ? "smoke" : "full");
  json.Add("offered.low_ops", low_rate, 0);
  json.Add("offered.high_ops", high_rate, 0);
  json.Add("pre_ramp.throughput_ops", pre_ramp, 1);
  json.Add("ramp.throughput_ops", ramp_rate, 1);
  json.Add("post_ramp.throughput_ops", tail_rate, 1);
  json.Add("ramp.follow_ratio", follow_ratio, 2);
  json.Add("ramp.followed_after_ms", followed_after_ms, 0);
  json.Add("controller.widens", widens);
  json.Add("controller.shrinks", shrinks);
  json.Add("controller.scale_outs", scale_outs);
  json.Add("controller.scale_ins", scale_ins);
  json.Add("controller.final_coordinators",
           static_cast<int64_t>(stack.coordinator_ids().size()));
  json.Add("controller.final_window_index",
           static_cast<int64_t>(orchestrator.window_index()));
  json.Add("controller.ring_epoch", static_cast<int64_t>(stack.ring_epoch()));
  json.Add("sheds.total", load.sheds());
  json.Add("sheds.after_settle", sheds_after_settle);
  bench::AddOracleJson(json, checker);
  json.AddJson("journal", journal.ToJson());
  json.Write();

  return oracle_clean && followed && controller_acted && sheds_decayed ? 0 : 1;
}
