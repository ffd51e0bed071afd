// The ICG contract oracle: one implementation of what every Correctable owes (§3),
// shared by the randomized oracle tests and the load benchmarks.
//
// Per invocation, checked as views stream in:
//   * views arrive weakest-first and monotone, each inside the requested
//     [weakest, strongest] range;
//   * exactly one terminal (a final view or an error) closes the invocation, and nothing
//     follows it;
//   * the final view is at the strongest requested level;
//   * an error closes it only if the error policy sanctions that error;
//   * no thin air: every value a read view returns was preloaded or submitted for that
//     key (update consistency's bar for what a weak view may return).
// Over the write history, after the run has quiesced:
//   * ack versions never regress per key, and replicas converge to each key's last
//     admitted write (single-writer-per-key loads);
//   * no acked write is lost, and a replica holding the acked version holds the acked
//     value.
//
// Also here: the seeded single-writer-per-key random KV load the oracle trials drive,
// a checked YCSB executor for the load benches, and the ICG_ORACLE_SEED reader.
// Nothing here is global: independent worlds check on their own threads.
#ifndef ICG_HARNESS_ICG_ORACLE_H_
#define ICG_HARNESS_ICG_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/correctables/client.h"
#include "src/kvstore/cluster.h"
#include "src/sim/event_loop.h"
#include "src/ycsb/runner.h"

namespace icg {

// How an invocation was issued: invokeWeak(), invokeStrong() or the full invoke().
enum class Request { kWeak, kStrong, kIcg };

// The terminal error a deployment may legitimately close an invocation with.
enum class SanctionedError {
  kNone,        // nothing may fail
  kOverloaded,  // retryable backpressure sheds only
  kAny,         // injected failures: any error, as long as it closes exactly once
};

struct ContractViolations {
  // Per invocation.
  int64_t regressions = 0;          // a view below an earlier view's level
  int64_t out_of_range = 0;         // a view outside the requested [weakest, strongest]
  int64_t final_level = 0;          // a final view below the strongest requested level
  int64_t duplicate_finals = 0;     // a second final view
  int64_t after_terminal = 0;       // any other view or error after the terminal
  int64_t unterminated = 0;         // still open at Finish()
  int64_t unsanctioned_errors = 0;  // an error the policy does not sanction
  int64_t thin_air = 0;             // a value never preloaded or submitted for its key
  // Write history, per key.
  int64_t ack_regressions = 0;  // an ack version below an earlier ack of the key
  int64_t divergence = 0;       // replicas disagree, or miss the last admitted write
  int64_t acked_lost = 0;       // a replica behind the key's acked version
  int64_t acked_value = 0;      // the acked version on a replica, with another value

  int64_t total() const {
    return regressions + out_of_range + final_level + duplicate_finals + after_terminal +
           unterminated + unsanctioned_errors + thin_air + ack_regressions + divergence +
           acked_lost + acked_value;
  }
};

class ContractChecker {
 public:
  struct Invocation {
    std::string key;
    std::string written;  // writes: the submitted value
    ConsistencyLevel weakest = ConsistencyLevel::kStrong;
    ConsistencyLevel strongest = ConsistencyLevel::kStrong;
    ConsistencyLevel last = ConsistencyLevel::kCache;  // latest view's level; the lowest
    bool is_write = false;
    bool check_values = false;
    int finals = 0;
    int errors = 0;
    StatusCode error = StatusCode::kOk;
    Version ack{};          // writes: the final view's version
    SimTime closed_at = -1;  // virtual time of the first terminal

    bool closed() const { return finals + errors > 0; }
    bool acked() const { return is_write && finals > 0; }
  };

  // `clock` stamps terminals and the fingerprint; null stamps them 0.
  explicit ContractChecker(SanctionedError sanctioned, const EventLoop* clock = nullptr)
      : sanctioned_(sanctioned), clock_(clock) {}
  // Invocation callbacks hold its address.
  ContractChecker(const ContractChecker&) = delete;
  ContractChecker& operator=(const ContractChecker&) = delete;

  // Registers `value` as one `key` may legally hold: preloaded, or about to be written.
  void Allow(const std::string& key, const std::string& value);
  bool Allowed(const std::string& key, const std::string& value) const;

  // Opens one invocation requesting [weakest, strongest] and returns its id (dense, from
  // 0). A write (`written` non-null) registers its value and joins the key's history in
  // call order, so open writes as they are submitted. `check_values` holds read views to
  // the no-thin-air rule.
  size_t Open(const std::string& key, ConsistencyLevel weakest, ConsistencyLevel strongest,
              const std::string* written, bool check_values);
  // Opens with the level range `client` requests for `request`.
  size_t Open(const CorrectableClient& client, Request request, const std::string& key,
              const std::string* written = nullptr, bool check_values = true);

  void OnView(size_t id, const View<OpResult>& view, bool is_final);
  void OnError(size_t id, const Status& status);
  // Routes `c`'s views and error into invocation `id`.
  void Watch(size_t id, Correctable<OpResult> c);
  // Counts invocations that never closed. Call once, after the run.
  void Finish();

  // Single-writer-per-key histories: CheckAckedWrites, and per key, ack versions never
  // regress in submission order, every replica holds the same value, and that value is
  // the last admitted write's (the last write not shed, once it was acked).
  void CheckProgramOrder(const KvCluster& cluster);
  // Any history: per key, every replica holds at least the highest acked version, and
  // exactly the acked value at that version. Returns how many keys had an acked write.
  int64_t CheckAckedWrites(const KvCluster& cluster);
  // The value of each key's last admitted write, for stores without versions.
  std::map<std::string, std::string> LastAdmittedWrites() const;

  const ContractViolations& violations() const { return violations_; }
  const std::vector<Invocation>& invocations() const { return invocations_; }
  int64_t finals() const { return finals_; }
  int64_t errors() const { return errors_; }
  // Order-sensitive hash of every view and error: level, terminal kind, value, version
  // and virtual time. Equal across runs iff the histories are equal.
  uint64_t fingerprint() const { return fingerprint_; }
  // The violation count and the first few violations, for failure messages.
  std::string Report() const;

 private:
  bool Sanctioned(StatusCode code) const;
  SimTime Now() const { return clock_ != nullptr ? clock_->Now() : 0; }
  void Fold(uint64_t word);
  void Fold(const std::string& bytes);
  void Note(int64_t& counter, const std::string& what);
  const Invocation* LastAdmitted(const std::vector<size_t>& writes) const;

  SanctionedError sanctioned_;
  const EventLoop* clock_;
  std::vector<Invocation> invocations_;
  std::map<std::string, std::vector<size_t>> writes_;  // key -> write ids, submission order
  std::unordered_map<std::string, std::unordered_set<std::string>> allowed_;
  ContractViolations violations_;
  int64_t finals_ = 0;
  int64_t errors_ = 0;
  uint64_t fingerprint_ = 0xcbf29ce484222325ULL;
  std::vector<std::string> notes_;
};

// One phase of the random load: `ops` operations at uniform instants in
// [start, start + length).
struct KvLoadPhase {
  SimTime start = 0;
  SimDuration length = 0;
  int ops = 0;
};

struct RandomKvLoadSpec {
  std::string key_prefix = "okey";
  int keys = 39;  // a multiple of the client count, so the writer partition is exact
  std::vector<KvLoadPhase> phases;
  // Reads draw weak-only / strong-only / invoke() evenly; false: invoke() only.
  bool mixed_reads = true;
  // Positive: retry overload sheds after this long, as a fresh invocation.
  SimDuration shed_retry = 0;
};

// The seeded random KV load of the oracle trials: reads and strong writes (one in four)
// from every client at instants drawn up front. Writes are single-writer-per-key —
// client c owns the keys whose index % clients == c — so per-key program order has a
// crisp oracle. Every invocation runs under `checker`.
class RandomKvLoad {
 public:
  // `clients` share one event loop.
  RandomKvLoad(std::vector<CorrectableClient*> clients, ContractChecker* checker,
               RandomKvLoadSpec spec);
  // Scheduled operations hold its address.
  RandomKvLoad(const RandomKvLoad&) = delete;
  RandomKvLoad& operator=(const RandomKvLoad&) = delete;

  std::string Key(int index) const { return spec_.key_prefix + std::to_string(index); }
  // Preloads "init" under every key and registers it with the checker.
  void Preload(KvCluster& cluster);
  // Draws the whole schedule from `rng` and schedules it on the clients' loop.
  void Schedule(Rng& rng);

  int64_t operations() const { return operations_; }  // logical, retries excluded
  int64_t sheds() const { return static_cast<int64_t>(shed_times_.size()); }
  const std::vector<SimTime>& shed_times() const { return shed_times_; }

 private:
  struct Op {
    size_t client = 0;
    bool is_write = false;
    Request request = Request::kIcg;  // reads
    std::string key;
    std::string value;
  };
  void Launch(const Op& op);
  void Shed(const Op& op);

  std::vector<CorrectableClient*> clients_;
  ContractChecker* checker_;
  RandomKvLoadSpec spec_;
  EventLoop* loop_;
  int64_t operations_ = 0;
  int writes_ = 0;
  std::vector<SimTime> shed_times_;
};

// The ICG executor of MakeKvExecutor (strong writes, invoke() reads) with every
// invocation opened in `checker`. Values are not held to no-thin-air.
OpExecutor MakeOracleIcgExecutor(CorrectableClient* client, ContractChecker* checker);

// The seed of the randomized oracles: ICG_ORACLE_SEED when set and non-empty, else
// 12345. Throws std::invalid_argument unless it is a decimal uint64.
uint64_t OracleSeed();
// The parser behind OracleSeed: null or empty gives `fallback`; signs, spaces, trailing
// characters and overflow throw.
uint64_t ParseOracleSeed(const char* text, uint64_t fallback);

}  // namespace icg

#endif  // ICG_HARNESS_ICG_ORACLE_H_
