// The deployment's event journal: one virtual-time record of what the deployment did —
// crashes, failure detection, rejoins, ring changes and the control plane's actions —
// in one schema, so a run's history can be fingerprinted by an oracle and exported into
// a bench's JSON. Entries are stamped from the world's event loop, so the journal is a
// pure function of the seed. Nothing on the per-operation path appends to it.
#ifndef ICG_HARNESS_JOURNAL_H_
#define ICG_HARNESS_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/sim/event_loop.h"

namespace icg {

// What an entry records, and what its `detail` holds.
enum class EventKind : uint8_t {
  kCrash,     // kill -9 of a replica. detail: 1 if it was a coordinator, else 0
  kDetected,  // the failure detector evicted a coordinator. detail: unanswered probes
  kRejoined,  // a crashed replica recovered. detail: 1 if re-admitted to the ring
  kRing,      // a new coordinator ring was installed. detail: +1 join, -1 leave
  kWiden,     // the controller climbed the batch-window ladder. detail: the new rung
  kShrink,    // the controller stepped the ladder down. detail: the new rung
  kScaleOut,  // the controller promoted a spare replica. detail: coordinators after
  kScaleIn,   // the controller retired a coordinator. detail: coordinators after
};

const char* EventKindName(EventKind kind);

struct JournalEntry {
  SimTime at = 0;
  EventKind kind = EventKind::kCrash;
  NodeId node = kInvalidNode;  // the node acted on; kInvalidNode for window changes
  uint64_t epoch = 0;          // the coordinator ring's epoch after the event
  int64_t detail = 0;
};

class Journal {
 public:
  explicit Journal(const EventLoop* loop) : loop_(loop) {}

  // Records `kind` at the loop's current virtual time.
  void Append(EventKind kind, NodeId node, uint64_t epoch, int64_t detail);

  // In append order, hence in nondecreasing `at`.
  const std::vector<JournalEntry>& entries() const { return entries_; }
  int64_t Count(EventKind kind) const;

  // Every field of every entry, compactly: what the determinism oracles compare.
  std::string Fingerprint() const;
  // A JSON array with one object per entry: {"at": us, "kind": name, "node", "epoch",
  // "detail"}.
  std::string ToJson() const;

 private:
  const EventLoop* loop_;
  std::vector<JournalEntry> entries_;
};

}  // namespace icg

#endif  // ICG_HARNESS_JOURNAL_H_
