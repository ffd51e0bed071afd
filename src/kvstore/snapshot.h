// Snapshot manager for a replica's LWW store, paired with the WAL.
//
// A snapshot is one checksummed **base** image of the whole versioned key-value map plus
// an ordered list of checksummed **delta segments**, each holding only the entries that
// changed since the previous cut. Every segment records the LSN of the last WAL record it
// covers. Like the WAL device, the snapshot "file" is byte buffers that survive
// KvReplica::Crash(). Writing a segment is modeled as atomic (write-temp-then-rename in a
// real system): a segment either exists completely and validates, or it was never
// written — there is no torn-snapshot state.
//
// Recovery order: load the base, apply each delta in order (a later delta overrides an
// earlier one for the same key), then replay the WAL strictly after the last segment's
// covered LSN. After each segment the WAL prefix it covers is truncated, which bounds
// both replay time and device growth.
//
// Compaction rule (fixed, not a knob): when no base exists yet, or the deltas' total
// entries would reach the base's entry count, the next snapshot rewrites the base from
// the whole store and drops every delta. Snapshot memory and recovery load therefore stay
// under 2x the store. Cadence is driven by the replica (KvConfig::snapshot_every appended
// records; 0 disables snapshots entirely, keeping the default timeline untouched).
#ifndef ICG_KVSTORE_SNAPSHOT_H_
#define ICG_KVSTORE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/kvstore/versioned_value.h"

namespace icg {

class SnapshotManager {
 public:
  using Store = std::map<std::string, VersionedValue>;

  explicit SnapshotManager(std::string name) : name_(std::move(name)) {}

  // Rewrites the base from the whole `storage`, drops every delta, and records that WAL
  // records with lsn <= through_lsn are covered.
  void Take(const Store& storage, uint64_t through_lsn);

  // Appends one delta segment with the current values of `entries`, which must be
  // distinct and in key order (so the bytes depend only on the store's history), and
  // records that WAL records with lsn <= through_lsn are covered. Needs a base.
  void TakeDelta(std::span<const Store::const_iterator> entries, uint64_t through_lsn);

  // The compaction rule: true when a snapshot of `changed_keys` entries must rewrite the
  // base instead of appending a delta.
  bool NeedsBase(uint64_t changed_keys) const {
    return base_.empty() || delta_entries_ + changed_keys >= base_entries_;
  }

  // Loads base + deltas into `out` (replacing its contents) and reports the covered LSN
  // of the last segment. Returns false — leaving `out` empty and `through_lsn` 0 — when
  // no snapshot exists or any segment fails its checksum.
  bool Load(Store* out, uint64_t* through_lsn) const;

  bool HasSnapshot() const { return !base_.empty(); }

  // --- Observability -------------------------------------------------------------------
  int64_t snapshots_taken() const { return snapshots_taken_; }  // bases + deltas
  int64_t image_bytes() const;                                  // base + every delta
  uint64_t covered_lsn() const { return covered_lsn_; }
  uint64_t base_entries() const { return base_entries_; }
  uint64_t delta_entries() const { return delta_entries_; }  // summed over the deltas
  size_t segments() const { return deltas_.size(); }         // delta segments
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::string base_;                // the simulated base file (atomic replace on Take)
  std::vector<std::string> deltas_;  // delta segment files, oldest first
  uint64_t base_entries_ = 0;
  uint64_t delta_entries_ = 0;
  uint64_t covered_lsn_ = 0;
  int64_t snapshots_taken_ = 0;
};

}  // namespace icg

#endif  // ICG_KVSTORE_SNAPSHOT_H_
