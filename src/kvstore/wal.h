// Per-replica write-ahead log over a simulated storage device.
//
// The "device" is a byte buffer that survives KvReplica::Crash() — the moral equivalent
// of the disk outliving the process in a kill -9. Appends land in the device buffer
// immediately but only become *durable* once Sync() advances the synced watermark
// (fsync). A crash discards the unsynced tail; with torn-tail faults enabled, a
// deterministic prefix of the first unsynced record survives as a torn record, exactly
// like a real log whose last sector made it to the platter and whose next one did not.
//
// Record wire format (all integers little-endian, fixed width):
//
//   [u32 payload_len][u64 lsn][i64 version.timestamp][i32 version.writer]
//   [u32 key_len][u32 value_len][key bytes][value bytes][u64 fnv1a(payload)]
//
// `payload_len` counts everything between itself and the trailing checksum. Replay
// validates both the length header (against the remaining device bytes) and the
// checksum; the first violation ends replay cleanly — by construction only unsynced
// (hence unacknowledged) records can be torn, so stopping there never loses an
// acknowledged write. Records apply under LWW, so replaying a record that is also
// covered by a snapshot (or re-replaying the whole log) is idempotent: zero
// duplication by version comparison, not by replay bookkeeping.
//
// Determinism: the device is plain memory, Sync's latency is a fixed configured
// duration charged on the caller's service queue, and the torn-tail cut point is a pure
// function of the torn record's bytes — no entropy, so a crash trial's fingerprint is a
// pure function of its seed.
#ifndef ICG_KVSTORE_WAL_H_
#define ICG_KVSTORE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/types.h"

namespace icg {

// Fault injection for the simulated device (the ICG_WAL_FAULTS sweep in CI).
struct WalFaults {
  // Extra service time a Sync() costs (slow fsync). 0 keeps appends free, which is what
  // keeps the default configuration bit-identical to the pre-durability timeline.
  SimDuration fsync_latency = 0;
  // On crash, keep a deterministic partial prefix of the first unsynced record instead
  // of dropping the tail at the sync watermark (torn write).
  bool torn_tail = false;
};

class Wal {
 public:
  struct Record {
    uint64_t lsn = 0;
    std::string key;
    std::string value;
    Version version;
  };

  struct ReplayResult {
    uint64_t records = 0;        // records handed to the apply callback
    uint64_t last_lsn = 0;       // highest LSN applied (0 if none)
    bool torn_tail = false;      // replay ended at a torn/corrupt record
    int64_t bytes_scanned = 0;
  };

  explicit Wal(std::string name) : name_(std::move(name)) {}

  void SetFaults(WalFaults faults) { faults_ = faults; }
  const WalFaults& faults() const { return faults_; }

  // Appends one record to the device buffer. NOT durable until the next Sync().
  // Returns the record's LSN (strictly increasing from 1).
  uint64_t Append(const std::string& key, const std::string& value, const Version& version);

  // Makes every appended byte durable and returns the fsync latency the caller must
  // charge (on its service queue) before acknowledging anything covered by this sync.
  SimDuration Sync();

  // Crash simulation: the unsynced tail is lost. With torn_tail faults, a partial
  // prefix of the first unsynced record survives (and fails validation on replay).
  void Crash();

  // Replays every valid record in append order, handing each to `apply` (LWW makes the
  // callback idempotent). Starts after `from_lsn` (records with lsn <= from_lsn are
  // skipped — they are covered by a snapshot). Stops cleanly at the first length or
  // checksum violation.
  ReplayResult Replay(uint64_t from_lsn,
                      const std::function<void(const Record&)>& apply) const;

  // Drops the device prefix covering records with lsn <= through_lsn (snapshot
  // truncation). Synced bytes shrink accordingly; unsynced bytes are untouched.
  void TruncateThrough(uint64_t through_lsn);

  // --- Observability -------------------------------------------------------------------
  uint64_t next_lsn() const { return next_lsn_; }
  int64_t appended_records() const { return appended_records_; }
  int64_t syncs() const { return syncs_; }
  int64_t device_bytes() const { return static_cast<int64_t>(device_.size()); }
  int64_t synced_bytes() const { return synced_bytes_; }
  int64_t unsynced_bytes() const { return device_bytes() - synced_bytes_; }
  uint64_t truncated_through() const { return truncated_through_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  WalFaults faults_;
  std::string device_;         // the simulated persistent medium
  int64_t synced_bytes_ = 0;   // durable watermark into device_
  uint64_t next_lsn_ = 1;
  uint64_t truncated_through_ = 0;  // highest LSN removed by snapshot truncation
  int64_t appended_records_ = 0;
  int64_t syncs_ = 0;
};

}  // namespace icg

#endif  // ICG_KVSTORE_WAL_H_
