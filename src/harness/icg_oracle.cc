#include "src/harness/icg_oracle.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/kvstore/replica.h"

namespace icg {

namespace {

constexpr size_t kMaxNotes = 8;

// Appends rather than `"x" + s`, which GCC 12 at -O3 misreports under -Wrestrict.
std::string Describe(const ContractChecker::Invocation& inv, size_t id) {
  return std::string(inv.is_write ? "write " : "read ")
      .append(inv.key)
      .append(" #")
      .append(std::to_string(id));
}

}  // namespace

// --- Contract checker ----------------------------------------------------------------

void ContractChecker::Allow(const std::string& key, const std::string& value) {
  allowed_[key].insert(value);
}

bool ContractChecker::Allowed(const std::string& key, const std::string& value) const {
  const auto it = allowed_.find(key);
  return it != allowed_.end() && it->second.count(value) > 0;
}

size_t ContractChecker::Open(const std::string& key, ConsistencyLevel weakest,
                             ConsistencyLevel strongest, const std::string* written,
                             bool check_values) {
  const size_t id = invocations_.size();
  Invocation& inv = invocations_.emplace_back();
  inv.key = key;
  inv.weakest = weakest;
  inv.strongest = strongest;
  inv.check_values = check_values && written == nullptr;  // acks carry no stored value
  if (written != nullptr) {
    inv.is_write = true;
    inv.written = *written;
    Allow(key, *written);
    writes_[key].push_back(id);
  }
  return id;
}

size_t ContractChecker::Open(const CorrectableClient& client, Request request,
                             const std::string& key, const std::string* written,
                             bool check_values) {
  const std::vector<ConsistencyLevel> levels = client.binding().SupportedLevels();
  return Open(key, request == Request::kStrong ? levels.back() : levels.front(),
              request == Request::kWeak ? levels.front() : levels.back(), written,
              check_values);
}

void ContractChecker::OnView(size_t id, const View<OpResult>& view, bool is_final) {
  Invocation& inv = invocations_[id];
  const SimTime now = Now();
  Fold(id);
  Fold(static_cast<uint64_t>(view.level) * 2 + (is_final ? 1 : 0));
  Fold(view.value.found ? 1 : 0);
  Fold(view.value.value);
  Fold(static_cast<uint64_t>(view.value.version.timestamp));
  Fold(static_cast<uint64_t>(view.value.version.writer));
  Fold(static_cast<uint64_t>(now));

  const std::string level = ConsistencyLevelName(view.level);
  if (IsStronger(inv.last, view.level)) {
    Note(violations_.regressions, Describe(inv, id) + ": view at " + level + " after " +
                                      ConsistencyLevelName(inv.last));
  }
  if (IsStronger(inv.weakest, view.level) || IsStronger(view.level, inv.strongest)) {
    Note(violations_.out_of_range, Describe(inv, id) + ": view at unrequested " + level);
  }
  if (is_final && IsStronger(inv.strongest, view.level)) {
    Note(violations_.final_level, Describe(inv, id) + ": final at " + level + ", below " +
                                      ConsistencyLevelName(inv.strongest));
  }
  if (inv.check_values && view.value.found && !Allowed(inv.key, view.value.value)) {
    Note(violations_.thin_air,
         Describe(inv, id) + ": returned never-written value '" + view.value.value + "'");
  }
  if (inv.closed()) {
    if (is_final && inv.finals > 0) {
      Note(violations_.duplicate_finals, Describe(inv, id) + ": second final view");
    } else {
      Note(violations_.after_terminal, Describe(inv, id) + ": view after the terminal");
    }
  } else if (is_final) {
    inv.closed_at = now;
    inv.ack = view.value.version;
  }
  inv.last = view.level;
  if (is_final) {
    inv.finals++;
    finals_++;
  }
}

void ContractChecker::OnError(size_t id, const Status& status) {
  Invocation& inv = invocations_[id];
  const SimTime now = Now();
  Fold(id);
  Fold(0x100 + static_cast<uint64_t>(status.code()));
  Fold(static_cast<uint64_t>(now));

  if (inv.closed()) {
    Note(violations_.after_terminal,
         Describe(inv, id) + ": error after the terminal: " + status.ToString());
  } else {
    inv.closed_at = now;
    inv.error = status.code();
  }
  if (!Sanctioned(status.code())) {
    Note(violations_.unsanctioned_errors,
         Describe(inv, id) + ": unsanctioned error: " + status.ToString());
  }
  inv.errors++;
  errors_++;
}

void ContractChecker::Watch(size_t id, Correctable<OpResult> c) {
  c.SetCallbacks([this, id](const View<OpResult>& v) { OnView(id, v, false); },
                 [this, id](const View<OpResult>& v) { OnView(id, v, true); },
                 [this, id](const Status& status) { OnError(id, status); });
}

void ContractChecker::Finish() {
  for (size_t id = 0; id < invocations_.size(); ++id) {
    if (!invocations_[id].closed()) {
      Note(violations_.unterminated, Describe(invocations_[id], id) + ": never closed");
    }
  }
}

bool ContractChecker::Sanctioned(StatusCode code) const {
  switch (sanctioned_) {
    case SanctionedError::kNone:
      return false;
    case SanctionedError::kOverloaded:
      return code == StatusCode::kOverloaded;
    case SanctionedError::kAny:
      return true;
  }
  return false;
}

// --- Write history ---------------------------------------------------------------------

const ContractChecker::Invocation* ContractChecker::LastAdmitted(
    const std::vector<size_t>& writes) const {
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    const Invocation& inv = invocations_[*it];
    // A shed write never reached a replica; every other write may have.
    if (!(inv.errors > 0 && inv.error == StatusCode::kOverloaded)) {
      return &inv;
    }
  }
  return nullptr;
}

void ContractChecker::CheckProgramOrder(const KvCluster& cluster) {
  CheckAckedWrites(cluster);
  for (const auto& [key, writes] : writes_) {
    const Invocation* previous = nullptr;
    for (const size_t id : writes) {
      const Invocation& write = invocations_[id];
      if (!write.acked()) continue;
      if (previous != nullptr && write.ack < previous->ack) {
        Note(violations_.ack_regressions, key + ": ack versions regressed at write #" +
                                              std::to_string(id));
      }
      previous = &write;
    }

    std::optional<VersionedValue> converged;
    for (const auto& replica : cluster.replicas()) {
      const auto stored = replica->LocalGet(key);
      if (!stored.has_value() || (converged.has_value() && !(*stored == *converged))) {
        Note(violations_.divergence, key + ": replicas diverged");
        converged.reset();
        break;
      }
      converged = stored;
    }
    const Invocation* last = LastAdmitted(writes);
    if (converged.has_value() && last != nullptr && last->acked() &&
        converged->value != last->written) {
      Note(violations_.divergence, key + ": replicas hold '" + converged->value +
                                       "', not the last admitted write '" + last->written +
                                       "'");
    }
  }
}

int64_t ContractChecker::CheckAckedWrites(const KvCluster& cluster) {
  int64_t acked_keys = 0;
  for (const auto& [key, writes] : writes_) {
    // The highest acked version; among equals (one batched flush) the latest submitted.
    const Invocation* acked = nullptr;
    for (const size_t id : writes) {
      const Invocation& write = invocations_[id];
      if (write.acked() && (acked == nullptr || !(write.ack < acked->ack))) {
        acked = &write;
      }
    }
    if (acked == nullptr) continue;
    acked_keys++;
    for (const auto& replica : cluster.replicas()) {
      const auto stored = replica->LocalGet(key);
      if (!stored.has_value() || stored->version < acked->ack) {
        Note(violations_.acked_lost, key + ": acked write lost on a replica");
        break;
      }
      if (stored->version == acked->ack && stored->value != acked->written) {
        Note(violations_.acked_value, key + ": acked version holds '" + stored->value +
                                          "', not the acked '" + acked->written + "'");
        break;
      }
    }
  }
  return acked_keys;
}

std::map<std::string, std::string> ContractChecker::LastAdmittedWrites() const {
  std::map<std::string, std::string> last_writes;
  for (const auto& [key, writes] : writes_) {
    if (const Invocation* last = LastAdmitted(writes)) {
      last_writes[key] = last->written;
    }
  }
  return last_writes;
}

// --- Fingerprint and reporting ---------------------------------------------------------

void ContractChecker::Fold(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    fingerprint_ ^= (word >> (8 * i)) & 0xff;
    fingerprint_ *= 0x100000001b3ULL;
  }
}

void ContractChecker::Fold(const std::string& bytes) {
  Fold(bytes.size());
  for (const char c : bytes) {
    fingerprint_ ^= static_cast<unsigned char>(c);
    fingerprint_ *= 0x100000001b3ULL;
  }
}

void ContractChecker::Note(int64_t& counter, const std::string& what) {
  counter++;
  if (notes_.size() < kMaxNotes) {
    notes_.push_back(what);
  }
}

std::string ContractChecker::Report() const {
  std::string report = std::to_string(violations_.total()) + " violations";
  for (const std::string& note : notes_) {
    report += "\n  " + note;
  }
  return report;
}

// --- Random KV load --------------------------------------------------------------------

RandomKvLoad::RandomKvLoad(std::vector<CorrectableClient*> clients, ContractChecker* checker,
                           RandomKvLoadSpec spec)
    : clients_(std::move(clients)),
      checker_(checker),
      spec_(std::move(spec)),
      loop_(clients_.front()->loop()) {}

void RandomKvLoad::Preload(KvCluster& cluster) {
  for (int i = 0; i < spec_.keys; ++i) {
    cluster.Preload(Key(i), "init");
    checker_->Allow(Key(i), "init");
  }
}

void RandomKvLoad::Schedule(Rng& rng) {
  const int n_clients = static_cast<int>(clients_.size());
  for (const KvLoadPhase& phase : spec_.phases) {
    for (int i = 0; i < phase.ops; ++i) {
      const SimTime at =
          phase.start + static_cast<SimTime>(rng.NextBounded(static_cast<uint64_t>(phase.length)));
      Op op;
      op.client = static_cast<size_t>(rng.NextBounded(clients_.size()));
      op.is_write = rng.NextBool(0.25);
      if (spec_.mixed_reads) {
        op.request = static_cast<Request>(rng.NextBounded(3));  // weak, strong, invoke()
      }
      int key_index = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(spec_.keys)));
      if (op.is_write) {
        // Single writer per key: move to a key this client owns.
        key_index = (key_index / n_clients) * n_clients + static_cast<int>(op.client);
        op.value = std::string("c")
                       .append(std::to_string(op.client))
                       .append("-")
                       .append(std::to_string(writes_++));
      }
      op.key = Key(key_index);
      operations_++;
      loop_->ScheduleAt(at, [this, op = std::move(op)]() { Launch(op); });
    }
  }
}

void RandomKvLoad::Launch(const Op& op) {
  CorrectableClient& client = *clients_[op.client];
  Correctable<OpResult> c =
      op.is_write                    ? client.InvokeStrong(Operation::Put(op.key, op.value))
      : op.request == Request::kWeak ? client.InvokeWeak(Operation::Get(op.key))
      : op.request == Request::kStrong ? client.InvokeStrong(Operation::Get(op.key))
                                       : client.Invoke(Operation::Get(op.key));
  // A shed at admission never became an invocation: just retry it.
  if (spec_.shed_retry > 0 && c.state() == CorrectableState::kError &&
      c.error().code() == StatusCode::kOverloaded) {
    Shed(op);
    return;
  }
  const size_t id = checker_->Open(client, op.is_write ? Request::kStrong : op.request, op.key,
                                   op.is_write ? &op.value : nullptr);
  // A shed at cohort flush closes its invocation with the sanctioned error; the retry
  // is a fresh invocation with a fresh stamp.
  ContractChecker* checker = checker_;
  c.SetCallbacks([checker, id](const View<OpResult>& v) { checker->OnView(id, v, false); },
                 [checker, id](const View<OpResult>& v) { checker->OnView(id, v, true); },
                 [this, id, op](const Status& status) {
                   checker_->OnError(id, status);
                   if (spec_.shed_retry > 0 && status.code() == StatusCode::kOverloaded) {
                     Shed(op);
                   }
                 });
}

void RandomKvLoad::Shed(const Op& op) {
  shed_times_.push_back(loop_->Now());
  loop_->Schedule(spec_.shed_retry, [this, op]() { Launch(op); });
}

// --- Checked YCSB executor -------------------------------------------------------------

OpExecutor MakeOracleIcgExecutor(CorrectableClient* client, ContractChecker* checker) {
  return [client, checker](const YcsbOp& op, std::function<void(OpOutcome)> done) {
    EventLoop* loop = client->loop();
    const SimTime start = loop->Now();
    auto now = [loop, start]() { return loop->Now() - start; };
    const size_t id = checker->Open(*client, op.is_read ? Request::kIcg : Request::kStrong,
                                    op.key, op.is_read ? nullptr : &op.value,
                                    /*check_values=*/false);
    auto outcome = std::make_shared<OpOutcome>();
    Correctable<OpResult> c = op.is_read
                                  ? client->Invoke(Operation::Get(op.key))
                                  : client->InvokeStrong(Operation::Put(op.key, op.value));
    c.SetCallbacks(
        [checker, id, outcome, now](const View<OpResult>& v) {
          checker->OnView(id, v, false);
          if (!outcome->preliminary_latency.has_value()) {
            outcome->preliminary_latency = now();
          }
        },
        [checker, id, outcome, done, now](const View<OpResult>& v) {
          checker->OnView(id, v, true);
          outcome->final_latency = now();
          done(*outcome);
        },
        [checker, id, outcome, done, now](const Status& status) {
          checker->OnError(id, status);
          outcome->error = true;
          outcome->final_latency = now();
          done(*outcome);
        });
  };
}

// --- Seed ------------------------------------------------------------------------------

uint64_t ParseOracleSeed(const char* text, uint64_t fallback) {
  if (text == nullptr || *text == '\0') {
    return fallback;
  }
  const char* end = text + std::strlen(text);
  uint64_t seed = 0;
  const auto [ptr, ec] = std::from_chars(text, end, seed);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(std::string("ICG_ORACLE_SEED='") + text +
                                "' is not a decimal 64-bit seed");
  }
  return seed;
}

uint64_t OracleSeed() { return ParseOracleSeed(std::getenv("ICG_ORACLE_SEED"), 12345); }

}  // namespace icg
