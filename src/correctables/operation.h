// Storage-agnostic operation descriptors passed from the client library to bindings.
//
// Applications build Operations with the factory helpers; bindings translate them into
// storage-specific protocols. A single tagged struct (rather than per-store templates)
// keeps the API surface "thin and consistency-based" as the paper advocates: the
// operation says *what*, the binding decides *how*.
#ifndef ICG_CORRECTABLES_OPERATION_H_
#define ICG_CORRECTABLES_OPERATION_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/small_vec.h"
#include "src/common/types.h"

namespace icg {

enum class OpType : uint8_t {
  kGet,       // read value at key
  kMultiGet,  // read several keys in one request (batched, e.g. fetching all ads)
  kPut,       // write value at key
  kMultiPut,  // apply several writes in one request, in order (cross-tick write batching)
  kEnqueue,   // append element to the queue named by key
  kDequeue,   // remove and return the queue head
  kPeek,      // read the queue head without removing
};

const char* OpTypeName(OpType type);

struct Operation {
  OpType type = OpType::kGet;
  std::string key;    // record key, or queue name for queue operations
  std::string value;  // put payload / enqueue element; empty otherwise
  std::vector<std::string> keys;    // kMultiGet / kMultiPut
  std::vector<std::string> values;  // kMultiPut only; parallel to `keys`, applied in order
  // Client-assigned LWW timestamp of a kPut (0 = unassigned: the coordinator stamps at
  // apply time, the legacy behaviour). The pipeline stamps every write at submission
  // with a per-client monotone clock, so one writer's same-key writes keep their program
  // order even when a live rebalance hands the key to a different coordinator mid-stream
  // (coordinator apply-time stamps would invert across the handoff whenever the old
  // coordinator's queue drains later than the new one's).
  SimTime timestamp = 0;
  std::vector<SimTime> timestamps;  // kMultiPut: per-entry stamps, parallel to `keys`

  static Operation Get(std::string key);
  static Operation MultiGet(std::vector<std::string> keys);
  static Operation Put(std::string key, std::string value);
  // `keys` and `values` must be the same length; entries apply in vector order, so two
  // writes to the same key keep their program order inside the batch.
  static Operation MultiPut(std::vector<std::string> keys, std::vector<std::string> values);
  static Operation Enqueue(std::string queue, std::string element);
  static Operation Dequeue(std::string queue);
  static Operation Peek(std::string queue);

  bool IsRead() const {
    return type == OpType::kGet || type == OpType::kMultiGet || type == OpType::kPeek;
  }
  bool IsQueueOp() const {
    return type == OpType::kEnqueue || type == OpType::kDequeue || type == OpType::kPeek;
  }

  // Approximate wire size of the request (header + key + payload), for byte accounting.
  int64_t WireBytes() const;

  std::string ToString() const;
};

// Separator between per-key payloads in a kMultiGet result value. Payload values must
// not contain this byte — the simulated wire format is separator-based, so a value
// embedding it would shift every later key's slice. (All workloads and apps in this
// repo satisfy that; a length-prefixed format is the lift if one ever must not.)
inline constexpr char kMultiValueSeparator = '\x1e';

// The result of an operation as observed under some consistency level. For kMultiGet,
// `value` holds the per-key payloads joined by kMultiValueSeparator (missing keys
// contribute an empty payload), `found` means every key was found, and `seqno` counts
// the keys found.
struct OpResult {
  bool found = false;  // key existed / queue non-empty
  std::string value;   // read value or dequeued element
  // Queue element sequence number (ticket position); -1 for key-value results. For a
  // dequeue preliminary view this is the observed head position, which the ticket app
  // uses as the remaining-stock estimate.
  int64_t seqno = -1;
  // Version of the value (key-value stores); default for queue results.
  Version version{};
  // Per-key detail of a batched (kMultiGet / kMultiPut) result, parallel to the
  // request's key order: the joined `found`/`version` above lose which key missed and
  // which version belongs to whom. Written by PackRead/PackWriteAck and read back only
  // by UnpackRead/UnpackWriteAck.
  std::vector<bool> key_found;
  std::vector<Version> key_versions;

  friend bool operator==(const OpResult&, const OpResult&) = default;

  // Approximate wire size of a response carrying this result.
  int64_t WireBytes() const;

  std::string ToString() const;
};

// --- Key-value requests as the stores receive them -------------------------------------
//
// Every store serves a single-key Get/Put as the one-entry case of the batched
// MultiGet/MultiPut: one read path and one write path. A request carries its entries
// inline for the one-key case (a lone Get or Put allocates nothing for its container)
// plus its wire shape, which picks only the byte formula and how the result is packed.

enum class WireShape : uint8_t {
  kSingle,  // Get/Put: the result is one key's OpResult
  kBatch,   // MultiGet/MultiPut: a joined value with per-key found/version detail
};

// One write of a request. `version.timestamp` carries the client-assigned LWW stamp on
// the way in (0 = none); the store replaces `version` with the version it applied. Only
// the quorum store honours client stamps; the others stamp every write themselves.
struct KeyWrite {
  std::string key;
  std::string value;
  Version version;
};

struct ReadRequest {
  SmallVec<std::string, 1> keys;
  WireShape shape = WireShape::kSingle;

  static ReadRequest Get(std::string key);
  static ReadRequest MultiGet(const std::vector<std::string>& keys);
  static ReadRequest Of(const Operation& op);  // a kGet or kMultiGet

  // Client -> store request bytes.
  int64_t WireBytes() const;
};

struct WriteRequest {
  SmallVec<KeyWrite, 1> writes;  // applied in order: same-key writes keep program order
  WireShape shape = WireShape::kSingle;

  static WriteRequest Put(std::string key, std::string value, SimTime timestamp = 0);
  // `timestamps` is empty or parallel to `keys`. Mismatched lists yield an empty
  // request, which every store rejects with kInvalidArgument.
  static WriteRequest MultiPut(const std::vector<std::string>& keys,
                               const std::vector<std::string>& values,
                               const std::vector<SimTime>& timestamps = {});
  static WriteRequest Of(const Operation& op);  // a kPut or kMultiPut

  // Client -> store request bytes of the keys and values (a store that honours client
  // LWW stamps adds their bytes).
  int64_t WireBytes() const;
};

// Packs a read's per-key answers in its wire shape. `part(i)` returns key i's result
// (nullopt or found=false = a miss). kSingle: that one result, a miss being
// found=false. kBatch: payloads joined in key order, `found` = every key found,
// `seqno` = keys found, `version` = freshest, and the per-key found/version detail.
OpResult PackRead(WireShape shape, size_t count,
                  const std::function<std::optional<OpResult>(size_t)>& part);

// The acknowledgement of an applied write request: `version` = the last applied
// version; a batch adds `seqno` = entries and the per-entry found/version detail.
OpResult PackWriteAck(WireShape shape, const SmallVec<KeyWrite, 1>& writes);

// The inverses: split a packed result of `count` entries back into per-entry results,
// entry i being exactly what a lone request for key (or write) i returns. kSingle: the
// result itself. kBatch: a read entry is its key's payload and version, a miss being
// OpResult{}; a write entry is a plain ack under that entry's applied version.
SmallVec<OpResult, 1> UnpackRead(WireShape shape, size_t count, const OpResult& packed);
SmallVec<OpResult, 1> UnpackWriteAck(WireShape shape, size_t count, const OpResult& packed);

// Wire-size constants shared by the simulated protocols. The paper reports ~270 B for a
// ZooKeeper enqueue request+response pair and ~130 B for the extra preliminary response;
// these headers make those magnitudes come out naturally.
inline constexpr int64_t kRequestHeaderBytes = 48;
inline constexpr int64_t kResponseHeaderBytes = 40;
inline constexpr int64_t kConfirmationBytes = 24;  // digest-only final (§5.2)

}  // namespace icg

#endif  // ICG_CORRECTABLES_OPERATION_H_
