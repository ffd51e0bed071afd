// perfbench: one open-loop benchmark over the public harness API.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --low-rate OPS --high-rate OPS --limit-ms MS --measure-s S
//             [--smoke] [--spans-out FILE] [--calibrate]
//
// --trace 0 measures the end-to-end metrics: the `low` and `high` phases at fixed rates,
// the max_rate_ops search, and repeated low+high runs of the same seed, at least
// kMinWarmRuns of them and more until --seconds of wall time have passed
// (sim_ops_per_wall_s is the best of them, and every run must reproduce the first
// bit-for-bit). --trace 1 runs the same low+high phases once untraced, then alternates
// untraced and traced runs until --seconds have passed, and reports the per-layer
// metrics. Virtual-time metrics are exact per seed; clock metrics are not. The last line
// of standard output is one JSON object; the exit code is nonzero when any output check
// fails.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/load.h"
#include "perfbench/src/runner.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool calibrate = false;
  double low_rate = 0;
  double high_rate = 0;
  double limit_ms = 0;
  double measure_s = 0;  // the low and high measurement windows
  std::string spans_out;
};

// Phase lengths, in virtual seconds. Only the low/high measurement window differs
// between workloads; it comes from --measure-s, except in smoke mode.
struct Lengths {
  double warmup_s;
  double measure_s;
  double probe_warmup_s;
  double probe_measure_s;
};
constexpr Lengths kSmokeLengths{0.5, 2, 0.5, 1};
Lengths FullLengths(double measure_s) { return {2, measure_s, 1, 4}; }

// An operation still open this long after the last arrival of its phase timed out.
constexpr double kDrainS = 60;

// Warm low+high runs per --trace 0 run, at the least.
constexpr size_t kMinWarmRuns = 3;

int64_t Us(double seconds) { return std::llround(seconds * 1e6); }

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Shortest text that reads back as the same double; non-finite values become null.
std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// One metric line: value, unit, and the samples it rests on.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample counts etc., printed only
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  bool AllFinite() const {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) {
        return false;
      }
    }
    return true;
  }
  // `json` selects which metrics go into the final JSON object.
  void Print(bool correct, int64_t attempted, int64_t failed,
             const std::vector<std::string>& json) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-40s %14s %-6s %s\n", m.name.c_str(), Num(m.value).c_str(),
                  m.unit.c_str(), m.note.c_str());
    }
    std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : json) {
      for (const Metric& m : metrics_) {
        if (m.name == name) {
          out += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
                 Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
          first = false;
        }
      }
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

const std::vector<std::string> kEndToEnd = {
    "setup_s",           "allocs_per_op",     "peak_rss_mb",       "low.prelim_p50_ms",
    "low.prelim_p99_ms", "low.final_p50_ms",  "low.final_p99_ms",  "high.prelim_p50_ms",
    "high.prelim_p99_ms", "high.final_p50_ms", "high.final_p99_ms", "max_rate_ops",
    "kb_per_op"};

const std::vector<std::string> kPerLayer = {
    "ycsb.gen_ns_per_op",
    "correctables.invoke_ns_per_op",
    "correctables.invoke_allocs_per_op",
    "correctables.deliver_ns_per_view",
    "correctables.views_per_op",
    "correctables.batch_wait_ms.p50",
    "correctables.batch_wait_ms.p99",
    "correctables.ops_per_store_call",
    "bindings.plan_ns_per_call",
    "bindings.fetch_ns_per_call",
    "bindings.weak_rtt_ms.p50",
    "bindings.weak_rtt_ms.p99",
    "bindings.strong_rtt_ms.p50",
    "bindings.strong_rtt_ms.p99",
    "kvstore.coord_busy_pct",
    "kvstore.coord_queue_depth.p99",
    "kvstore.service_jobs_per_op",
    "kvstore.wal_syncs_per_write",
    "kvstore.wal_bytes_per_user_byte",
    "zab.leader_busy_pct",
    "zab.leader_queue_depth.p99",
    "zab.service_jobs_per_op",
    "sim.events_per_op",
    "sim.drive_self_ns_per_op",
    "sim.drive_allocs_per_op",
    "sim.msgs_per_op",
    "sim.client_msgs_per_op",
    "sim.dropped_msgs",
    "harness.build_s",
    "harness.preload_s",
    "trace.overhead_pct",
    "divergence_pct",
    "sim_ops_per_wall_s"};

// Allocations the program made per operation in one low+high run: operator new calls
// inside Invoke* and RunUntil, minus the benchmark's own callbacks.
struct Allocs {
  double invoke = 0;
  double drive = 0;
  double ops = 0;
};

Allocs AllocsOf(Rep& rep) {
  Allocs a;
  for (const PhaseResult& p : rep.phases()) {
    a.invoke += static_cast<double>(p.invoke_allocs);
    a.drive += static_cast<double>(p.drive_allocs);
    a.ops += static_cast<double>(p.attempted);
  }
  return a;
}

// Operations `plans` issue on average.
double ExpectedOps(const std::vector<PhasePlan>& plans) {
  double ops = 0;
  for (const PhasePlan& p : plans) {
    ops += p.rate * static_cast<double>(p.warmup_us + p.measure_us) / 1e6;
  }
  return ops;
}

// Per-queue preload for czk-queue: half the operations are dequeues spread over the
// queues; 1.5x that plus a margin keeps every dequeue non-empty.
int64_t QueueDepth(const std::vector<PhasePlan>& plans) {
  return static_cast<int64_t>(std::ceil(ExpectedOps(plans) * 0.5 / Deployment::kQueues * 1.5)) +
         1000;
}

// Everything a run reproduces exactly for a seed, as text (hex floats): fingerprints,
// counts and every virtual-time metric of every phase.
std::string VirtualSignature(std::deque<PhaseResult>& phases) {
  std::string sig;
  char buf[256];
  for (PhaseResult& p : phases) {
    std::snprintf(buf, sizeof(buf), "%s:%016llx:%lld/%lld/%lld/%lld/%lld:%lld:%a:%a:%a:%a;",
                  p.name.c_str(), static_cast<unsigned long long>(p.fingerprint.value()),
                  static_cast<long long>(p.attempted), static_cast<long long>(p.completed),
                  static_cast<long long>(p.failed), static_cast<long long>(p.prelims),
                  static_cast<long long>(p.divergent),
                  static_cast<long long>(p.end.client_bytes - p.start.client_bytes),
                  p.prelim.PercentileMs(50), p.prelim.PercentileMs(99),
                  p.final_view.PercentileMs(50), p.final_view.PercentileMs(99));
    sig += buf;
  }
  return sig;
}

void AddDivergence(Report& report, const PhaseResult& high) {
  report.Add("divergence_pct",
             100.0 * Ratio(static_cast<double>(high.divergent), static_cast<double>(high.prelims)),
             "%", std::to_string(high.divergent) + "/" + std::to_string(high.prelims) + " at high");
}

// The fastest of several runs of the same work: interference from other processes on
// the machine only ever slows a run down, so the best run is the steadiest estimate of
// the program's own cost.
double Best(const std::vector<double>& rates) {
  return rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end());
}

// Completed ops per second of the phases' process CPU time, which for this
// single-threaded program is its wall time without the time other processes held the
// CPU. The span includes the benchmark's own generator, view callbacks and per-ms
// sampling; the traced run breaks those out.
double OpsPerWallSecond(std::deque<PhaseResult>& phases) {
  double ops = 0;
  double cpu = 0;
  for (const PhaseResult& p : phases) {
    ops += static_cast<double>(p.completed);
    cpu += p.cpu_s;
  }
  return Ratio(ops, cpu);
}

class Bench {
 public:
  explicit Bench(Options options) : o_(std::move(options)) {}

  int Run() {
    if (!ParseWorkload(o_.workload, &kind_)) {
      std::fprintf(stderr, "unknown workload '%s'\n", o_.workload.c_str());
      return 2;
    }
    if (o_.smoke) {
      len_ = kSmokeLengths;
      o_.seconds = 0;
    } else {
      len_ = FullLengths(o_.measure_s);
    }
    plans_ = {PhasePlan{"low", o_.low_rate, Us(len_.warmup_s), Us(len_.measure_s), 1},
              PhasePlan{"high", o_.high_rate, Us(len_.warmup_s), Us(len_.measure_s), 2}};
    std::printf("perfbench %s seed=%llu trace=%d low=%s ops/s high=%s ops/s "
                "final p99 limit=%s ms\n",
                o_.workload.c_str(), static_cast<unsigned long long>(o_.seed), o_.trace ? 1 : 0,
                Num(o_.low_rate).c_str(), Num(o_.high_rate).c_str(), Num(o_.limit_ms).c_str());
    if (o_.calibrate) {
      return Calibrate();
    }
    const int rc = o_.trace ? RunTraced() : RunEndToEnd();
    if (o_.smoke && rc == 0 && !o_.trace) {
      o_.trace = true;
      return RunTraced();
    }
    return rc;
  }

 private:
  // Runs `plans` on a fresh deployment and closes its history.
  std::unique_ptr<Rep> RunRep(uint64_t seed, bool traced, const std::vector<PhasePlan>& plans) {
    auto rep = std::make_unique<Rep>(kind_, seed, traced, QueueDepth(plans), ExpectedOps(plans),
                                     Us(kDrainS));
    for (const PhasePlan& plan : plans) {
      PhaseResult& phase = rep->RunPhase(plan);
      attempted_ += phase.attempted;
      failed_ += phase.failed;
      dropped_ += phase.end.dropped - phase.start.dropped;
    }
    rep->Finish();
    violations_ += rep->violations();
    return rep;
  }

  // An untraced low+high run of the run's seed. Set-up times come only from these runs,
  // so every timed set-up builds the same deployment with the same preload.
  std::unique_ptr<Rep> RunLowHigh() {
    auto rep = RunRep(o_.seed, false, plans_);
    setup_s_.push_back(rep->setup().build_s + rep->setup().preload_s);
    build_s_.push_back(rep->setup().build_s);
    preload_s_.push_back(rep->setup().preload_s);
    return rep;
  }

  bool ProbeMet(double rate) {
    const std::vector<PhasePlan> plans = {PhasePlan{
        "probe", rate, Us(len_.probe_warmup_s), Us(len_.probe_measure_s), 100 + probes_++}};
    auto rep = RunRep(o_.seed, false, plans);
    PhaseResult& p = rep->phases().front();
    const bool met = p.Met(o_.limit_ms);
    std::printf("  probe %-10s ops/s  final p99 %9s ms  backlog %s  -> %s\n", Num(rate).c_str(),
                Num(p.final_view.PercentileMs(99)).c_str(),
                BacklogGrows(p.in_flight) ? "grows" : "flat", met ? "met" : "missed");
    return met;
  }

  void PrintPhase(PhaseResult& p) {
    std::printf("  phase %-5s rate %s ops/s: attempted %lld completed %lld failed %lld, "
                "prelim n=%lld final n=%lld (beyond p99: %lld), cpu %.3f s\n",
                p.name.c_str(), Num(p.rate).c_str(), static_cast<long long>(p.attempted),
                static_cast<long long>(p.completed), static_cast<long long>(p.failed),
                static_cast<long long>(p.prelim.count()),
                static_cast<long long>(p.final_view.count()),
                static_cast<long long>(p.final_view.BeyondCount(99)), p.cpu_s);
  }

  void AddLatencies(Report& report, PhaseResult& p) {
    const std::string pre = p.name + ".";
    const std::string pn = "n=" + std::to_string(p.prelim.count());
    const std::string fnote = "n=" + std::to_string(p.final_view.count());
    report.Add(pre + "prelim_p50_ms", p.prelim.PercentileMs(50), "ms", pn);
    report.Add(pre + "prelim_p99_ms", p.prelim.PercentileMs(99), "ms",
               pn + " beyond=" + std::to_string(p.prelim.BeyondCount(99)));
    report.Add(pre + "final_p50_ms", p.final_view.PercentileMs(50), "ms", fnote);
    report.Add(pre + "final_p99_ms", p.final_view.PercentileMs(99), "ms",
               fnote + " beyond=" + std::to_string(p.final_view.BeyondCount(99)));
  }

  bool PrintChecks(bool extra_ok) {
    const Violations& v = violations_;
    std::printf("checks: contract order=%lld terminal=%lld final_level=%lld "
                "unterminated=%lld; thin_air=%lld; queue double_dequeue=%lld "
                "unknown_dequeue=%lld; dropped_msgs=%lld\n",
                static_cast<long long>(v.order), static_cast<long long>(v.terminal),
                static_cast<long long>(v.final_level), static_cast<long long>(v.unterminated),
                static_cast<long long>(v.thin_air), static_cast<long long>(v.double_dequeue),
                static_cast<long long>(v.unknown_dequeue), static_cast<long long>(dropped_));
    return v.total() == 0 && dropped_ == 0 && extra_ok;
  }

  int RunEndToEnd() {
    const auto start = Clock::now();
    auto first = RunLowHigh();
    const std::string signature = VirtualSignature(first->phases());
    // Memory at the fixed low+high load, before the search's overload probes.
    const double peak_rss_mb = PeakRssMb();
    const RateSearch search = SearchMaxRate(
        o_.high_rate, [this](double rate) { return ProbeMet(rate); }, 1.25, 8,
        o_.smoke ? 1 : 5);
    // The first run in a process pays page faults on a fresh heap; later runs of the
    // same work are warm and give the rate.
    bool reps_agree = true;
    std::vector<double> rates;
    Allocs allocs;
    while (rates.size() < kMinWarmRuns || SecondsSince(start) < o_.seconds) {
      auto again = RunLowHigh();
      reps_agree = reps_agree && VirtualSignature(again->phases()) == signature;
      rates.push_back(OpsPerWallSecond(again->phases()));
      allocs = AllocsOf(*again);
    }
    // A different seed must change the history.
    auto other = RunRep(o_.seed + 1, false, {plans_.front()});
    const bool seed_matters = other->phases().front().fingerprint.value() !=
                              first->phases().front().fingerprint.value();

    PhaseResult& low = first->phases()[0];
    PhaseResult& high = first->phases()[1];
    PrintPhase(low);
    PrintPhase(high);
    Report report;
    report.Add("setup_s", Median(setup_s_), "s",
               "median of " + std::to_string(setup_s_.size()) + " low+high set-ups, cpu");
    report.Add("allocs_per_op", Ratio(allocs.invoke + allocs.drive, allocs.ops), "count",
               "last warm low+high run");
    report.Add("peak_rss_mb", peak_rss_mb, "MB", "after the first low+high run");
    report.Add("sim_ops_per_wall_s", Best(rates), "1/s",
               "best of " + std::to_string(rates.size()) + " warm low+high runs, cpu");
    AddLatencies(report, low);
    AddLatencies(report, high);
    report.Add("max_rate_ops", search.max_rate, "1/s",
               std::to_string(search.probes.size()) + " probes, limit " + Num(o_.limit_ms) +
                   " ms");
    report.Add("kb_per_op",
               Ratio(static_cast<double>(high.end.client_bytes - high.start.client_bytes) / 1000.0,
                     static_cast<double>(high.completed)),
               "kB", "n=" + std::to_string(high.completed));
    AddDivergence(report, high);
    report.Add("error_pct",
               100.0 * Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)), "%",
               std::to_string(failed_) + "/" + std::to_string(attempted_));
    report.Add("generator_late_ms", 0.0, "ms", "0 by construction in virtual time");
    std::printf("determinism: fingerprint low=%016llx high=%016llx; %zu same-seed runs agree: "
                "%s; seed %llu differs: %s\n",
                static_cast<unsigned long long>(low.fingerprint.value()),
                static_cast<unsigned long long>(high.fingerprint.value()), rates.size() + 1,
                reps_agree ? "yes" : "NO", static_cast<unsigned long long>(o_.seed + 1),
                seed_matters ? "yes" : "NO");
    const bool correct = PrintChecks(reps_agree && seed_matters) && report.AllFinite();
    report.Print(correct, attempted_, failed_, kEndToEnd);
    return correct ? 0 : 1;
  }

  int RunTraced() {
    const auto start = Clock::now();
    auto untraced = RunLowHigh();
    const std::string signature = VirtualSignature(untraced->phases());
    std::unique_ptr<Rep> traced;
    Totals totals;
    std::vector<double> untraced_rates, traced_rates;
    Allocs allocs;
    bool agree = true;
    do {
      // Warm untraced and traced runs alternate, so both sides of the overhead see the
      // same machine conditions.
      auto warm = RunLowHigh();
      agree = agree && VirtualSignature(warm->phases()) == signature;
      untraced_rates.push_back(OpsPerWallSecond(warm->phases()));
      allocs = AllocsOf(*warm);
      warm.reset();
      traced = RunRep(o_.seed, true, plans_);
      agree = agree && VirtualSignature(traced->phases()) == signature;
      traced_rates.push_back(OpsPerWallSecond(traced->phases()));
      Rep* rep = traced.get();
      const SpanTotals t = SumSpans(*rep->deployment().span_log(),
                                    static_cast<int>(icg::ConsistencyLevel::kWeak),
                                    static_cast<int>(icg::ConsistencyLevel::kStrong),
                                    [rep](uint64_t id) { return rep->DueOf(id); });
      Accumulate(totals, t);
    } while (SecondsSince(start) < o_.seconds);
    if (!o_.spans_out.empty() && !traced->deployment().span_log()->WriteCsv(o_.spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", o_.spans_out.c_str());
    }

    std::deque<PhaseResult>& phases = traced->phases();
    PhaseResult& high = phases[1];
    double ops = 0, views = 0, writes = 0, user_bytes = 0;
    for (const PhaseResult& p : phases) {
      ops += static_cast<double>(p.attempted);
      views += static_cast<double>(p.views);
      writes += static_cast<double>(p.writes);
      user_bytes += static_cast<double>(p.user_bytes_written);
    }
    const Counters& c0 = phases.front().start;
    const Counters& c1 = phases.back().end;
    const double high_window = static_cast<double>(Us(len_.measure_s));
    double coord_busy = 0;
    for (size_t i = 0; i < high.measure_end.coord_busy_us.size(); ++i) {
      coord_busy = std::max(coord_busy, static_cast<double>(high.measure_end.coord_busy_us[i] -
                                                            high.measure_start.coord_busy_us[i]));
    }
    const bool kv = kind_ != WorkloadKind::kCzkQueue;
    std::vector<int64_t> depth = high.queue_depth;
    const double depth_p99 = static_cast<double>(Percentile(depth, 99));
    const double untraced_rate = Best(untraced_rates);
    const double traced_rate = Best(traced_rates);
    const double n = static_cast<double>(totals.reps);

    Report r;
    r.Add("ycsb.gen_ns_per_op", Ratio(totals.t.gen_ns, totals.t.gen_calls), "ns");
    r.Add("correctables.invoke_ns_per_op", Ratio(totals.t.invoke_self_ns, totals.t.invoke_calls),
          "ns");
    r.Add("correctables.invoke_allocs_per_op", Ratio(allocs.invoke, allocs.ops), "count");
    r.Add("correctables.deliver_ns_per_view", Ratio(totals.t.emit_self_ns, views * n), "ns");
    r.Add("correctables.views_per_op", Ratio(views, ops), "count");
    LatencySet wait{totals.first.batch_wait_us};
    r.Add("correctables.batch_wait_ms.p50", wait.PercentileMs(50), "ms",
          "n=" + std::to_string(wait.count()));
    r.Add("correctables.batch_wait_ms.p99", wait.PercentileMs(99), "ms");
    r.Add("correctables.ops_per_store_call",
          Ratio(totals.t.fetch_served, totals.t.fetch_calls), "count");
    r.Add("bindings.plan_ns_per_call", Ratio(totals.t.plan_ns, totals.t.plan_calls), "ns");
    r.Add("bindings.fetch_ns_per_call", Ratio(totals.t.fetch_ns, totals.t.fetch_calls), "ns");
    LatencySet weak{totals.first.weak_rtt_us};
    LatencySet strong{totals.first.strong_rtt_us};
    r.Add("bindings.weak_rtt_ms.p50", weak.PercentileMs(50), "ms",
          "n=" + std::to_string(weak.count()));
    r.Add("bindings.weak_rtt_ms.p99", weak.PercentileMs(99), "ms");
    r.Add("bindings.strong_rtt_ms.p50", strong.PercentileMs(50), "ms",
          "n=" + std::to_string(strong.count()));
    r.Add("bindings.strong_rtt_ms.p99", strong.PercentileMs(99), "ms");
    r.Add("kvstore.coord_busy_pct", 100.0 * Ratio(coord_busy, high_window), "%", "at high");
    r.Add("kvstore.coord_queue_depth.p99", kv ? depth_p99 : 0.0, "count", "at high");
    r.Add("kvstore.service_jobs_per_op",
          Ratio(static_cast<double>(c1.kv_service_jobs - c0.kv_service_jobs), ops), "count");
    r.Add("kvstore.wal_syncs_per_write",
          Ratio(static_cast<double>(c1.wal_syncs - c0.wal_syncs), writes), "count");
    r.Add("kvstore.wal_bytes_per_user_byte", Ratio(c1.wal_bytes - c0.wal_bytes, user_bytes),
          "ratio");
    r.Add("zab.leader_busy_pct",
          100.0 * Ratio(static_cast<double>(high.measure_end.leader_busy_us -
                                            high.measure_start.leader_busy_us),
                        high_window),
          "%", "at high");
    r.Add("zab.leader_queue_depth.p99", kv ? 0.0 : depth_p99, "count", "at high");
    r.Add("zab.service_jobs_per_op",
          Ratio(static_cast<double>(c1.zab_service_jobs - c0.zab_service_jobs), ops), "count");
    r.Add("sim.events_per_op", Ratio(static_cast<double>(c1.events - c0.events), ops), "count");
    r.Add("sim.drive_self_ns_per_op", Ratio(totals.t.drive_self_ns, ops * n), "ns");
    r.Add("sim.drive_allocs_per_op", Ratio(allocs.drive, allocs.ops), "count");
    r.Add("sim.msgs_per_op", Ratio(static_cast<double>(c1.net_messages - c0.net_messages), ops),
          "count");
    r.Add("sim.client_msgs_per_op",
          Ratio(static_cast<double>(c1.client_messages - c0.client_messages), ops), "count");
    r.Add("sim.dropped_msgs", static_cast<double>(dropped_), "count");
    r.Add("harness.build_s", Median(build_s_), "s");
    r.Add("harness.preload_s", Median(preload_s_), "s");
    r.Add("trace.overhead_pct", 100.0 * (Ratio(untraced_rate, traced_rate) - 1.0), "%",
          "untraced " + Num(untraced_rate) + " vs traced " + Num(traced_rate) + " ops/s");
    AddDivergence(r, high);
    r.Add("sim_ops_per_wall_s", untraced_rate, "1/s",
          "best of " + std::to_string(untraced_rates.size()) + " warm untraced runs, cpu");
    std::printf("determinism: %zu traced runs reproduce the untraced fingerprint and "
                "virtual-time metrics: %s\n",
                traced_rates.size(), agree ? "yes" : "NO");
    const bool correct = PrintChecks(agree);
    r.Print(correct, attempted_, failed_, kPerLayer);
    return correct ? 0 : 1;
  }

  // Untraced capacity and unloaded latency, from which the fixed rates and the limit
  // are derived once: low = 40% and high = 85% of capacity, limit = 2x unloaded p99.
  int Calibrate() {
    const double unloaded_rate = o_.low_rate / 10.0;
    auto rep = RunRep(o_.seed, false,
                      {PhasePlan{"unloaded", unloaded_rate, Us(len_.warmup_s),
                                 Us(len_.measure_s * 5), 1}});
    const double unloaded_p99 = rep->phases().front().final_view.PercentileMs(99);
    o_.limit_ms = std::numeric_limits<double>::infinity();
    const RateSearch capacity =
        SearchMaxRate(o_.high_rate, [this](double rate) { return ProbeMet(rate); });
    std::printf("calibration: unloaded (%s ops/s) final p99 %s ms; capacity %s ops/s\n"
                "  -> low %s ops/s, high %s ops/s, limit %s ms\n",
                Num(unloaded_rate).c_str(), Num(unloaded_p99).c_str(),
                Num(capacity.max_rate).c_str(), Num(0.40 * capacity.max_rate).c_str(),
                Num(0.85 * capacity.max_rate).c_str(), Num(2 * unloaded_p99).c_str());
    return 0;
  }

  struct Totals {
    SpanTotals t;      // summed over every traced run
    SpanTotals first;  // the first traced run: its virtual-time lists
    int reps = 0;
  };

  static void Accumulate(Totals& into, const SpanTotals& t) {
    if (into.reps++ == 0) {
      into.first = t;
    }
    into.t.gen_ns += t.gen_ns;
    into.t.gen_calls += t.gen_calls;
    into.t.invoke_self_ns += t.invoke_self_ns;
    into.t.invoke_calls += t.invoke_calls;
    into.t.plan_ns += t.plan_ns;
    into.t.plan_calls += t.plan_calls;
    into.t.fetch_ns += t.fetch_ns;
    into.t.fetch_calls += t.fetch_calls;
    into.t.fetch_served += t.fetch_served;
    into.t.emit_self_ns += t.emit_self_ns;
    into.t.emit_calls += t.emit_calls;
    into.t.drive_self_ns += t.drive_self_ns;
    into.t.drive_calls += t.drive_calls;
  }

  static double PeakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  Options o_;
  Lengths len_{};
  WorkloadKind kind_ = WorkloadKind::kYcsbBIcg;
  std::vector<PhasePlan> plans_;
  std::vector<double> setup_s_, build_s_, preload_s_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t dropped_ = 0;
  uint64_t probes_ = 0;
  Violations violations_;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke" || flag == "--calibrate") {
      args.emplace(flag, std::string());
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      args.insert_or_assign(flag, std::string(argv[++i]));
    } else {
      std::fprintf(stderr, "bad argument '%s'\n", flag.c_str());
      return false;
    }
  }
  auto num = [&args](const char* flag, double* out) {
    auto it = args.find(flag);
    if (it != args.end()) {
      *out = std::strtod(it->second.c_str(), nullptr);
    }
  };
  o->workload = args["--workload"];
  o->seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  o->trace = args["--trace"] == "1";
  o->smoke = args.count("--smoke") > 0;
  o->calibrate = args.count("--calibrate") > 0;
  o->spans_out = args["--spans-out"];
  num("--seconds", &o->seconds);
  num("--low-rate", &o->low_rate);
  num("--high-rate", &o->high_rate);
  num("--limit-ms", &o->limit_ms);
  num("--measure-s", &o->measure_s);
  if (o->low_rate <= 0 || o->high_rate <= 0 || o->limit_ms <= 0 || o->measure_s <= 0) {
    std::fprintf(stderr, "--low-rate, --high-rate, --limit-ms and --measure-s are required\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    return 2;
  }
  return perfbench::Bench(std::move(options)).Run();
}
