#include "src/harness/journal.h"

namespace icg {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kCrash: return "crash";
    case EventKind::kDetected: return "detected";
    case EventKind::kRejoined: return "rejoined";
    case EventKind::kRing: return "ring";
    case EventKind::kWiden: return "widen";
    case EventKind::kShrink: return "shrink";
    case EventKind::kScaleOut: return "scale-out";
    case EventKind::kScaleIn: return "scale-in";
  }
  return "?";
}

void Journal::Append(EventKind kind, NodeId node, uint64_t epoch, int64_t detail) {
  entries_.push_back(JournalEntry{loop_->Now(), kind, node, epoch, detail});
}

int64_t Journal::Count(EventKind kind) const {
  int64_t count = 0;
  for (const JournalEntry& entry : entries_) {
    count += entry.kind == kind ? 1 : 0;
  }
  return count;
}

std::string Journal::Fingerprint() const {
  std::string fingerprint;
  for (const JournalEntry& entry : entries_) {
    fingerprint += std::to_string(entry.at) + ':' + EventKindName(entry.kind) + ":n" +
                   std::to_string(entry.node) + ":e" + std::to_string(entry.epoch) + ':' +
                   std::to_string(entry.detail) + ';';
  }
  return fingerprint;
}

std::string Journal::ToJson() const {
  // Kind names are the only strings, and none holds a character JSON must escape.
  std::string json = "[";
  for (const JournalEntry& entry : entries_) {
    if (json.size() > 1) {
      json += ", ";
    }
    json += "{\"at\": " + std::to_string(entry.at) + ", \"kind\": \"" +
            EventKindName(entry.kind) + "\", \"node\": " + std::to_string(entry.node) +
            ", \"epoch\": " + std::to_string(entry.epoch) +
            ", \"detail\": " + std::to_string(entry.detail) + "}";
  }
  return json + "]";
}

}  // namespace icg
