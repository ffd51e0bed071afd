// A ZooKeeper-like coordination server replicating queue state via a Zab-style atomic
// broadcast: the leader proposes, followers acknowledge, and the leader commits once a
// majority (including itself) has acknowledged; commits apply in zxid order everywhere.
//
// Correctable ZooKeeper (CZK, §5.2): when a client requests ICG, the *contacted* server
// first simulates the operation on its local state and returns that preliminary (weak)
// result immediately; the strong result follows after Zab coordination, delivered by the
// same session server.
//
// Reads (queue listings, head reads) are served from local state without coordination,
// exactly like ZooKeeper reads — which is why the baseline client-driven dequeue recipe
// can race and retry.
#ifndef ICG_ZAB_SERVER_H_
#define ICG_ZAB_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/pooled.h"
#include "src/common/status.h"
#include "src/correctables/binding.h"
#include "src/correctables/operation.h"
#include "src/sim/network.h"
#include "src/sim/service_queue.h"
#include "src/zab/queue_state.h"

namespace icg {

struct ZabConfig {
  SimDuration leader_propose_service = Micros(250);
  SimDuration follower_ack_service = Micros(150);
  SimDuration commit_apply_service = Micros(150);
  SimDuration local_read_service = Micros(120);
  SimDuration local_sim_service = Micros(80);  // CZK preliminary simulation
  // Bytes per child name in a getChildren listing: the unit of the ZK recipe's
  // message-size inflation (Figure 10).
  int64_t znode_name_bytes = 16;
};

enum class ZabOpType : uint8_t {
  kEnqueue,  // sequential-znode create
  kDequeue,  // CZK server-side atomic dequeue
  kDelete,   // znode delete by sequence number (ZK recipe)
};

struct ZabOp {
  ZabOpType type = ZabOpType::kEnqueue;
  std::string queue;
  std::string data;  // enqueue payload
  int64_t seq = -1;  // delete target
  NodeId origin = kInvalidNode;       // session server owning the client request
  uint64_t origin_request = 0;        // id of that request at the origin

  int64_t WireBytes() const {
    return kRequestHeaderBytes + static_cast<int64_t>(queue.size()) +
           static_cast<int64_t>(data.size());
  }
};

// Outcome of applying a committed op to the state machine.
struct ZabApplyResult {
  bool ok = false;
  std::string data;
  int64_t seq = -1;
};

// Completion for a client request against a ZabServer; mirrors KvResponseFn.
using ZabResponseFn =
    InlineFunction<void(StatusOr<OpResult>, bool is_final, ResponseKind kind), 96>;

class ZabServer {
 public:
  ZabServer(Network* network, NodeId id, const ZabConfig* config, const std::string& name);

  // Wires the ensemble. `peers` excludes self; `leader` may be this server.
  void SetEnsemble(std::vector<ZabServer*> peers, ZabServer* leader);

  NodeId id() const { return id_; }
  bool is_leader() const { return leader_ == this; }
  // Event counts since construction.
  struct Counters {
    int64_t writes_received = 0;
    int64_t preliminaries_sent = 0;
    int64_t proposals = 0;
    int64_t commits = 0;
    int64_t applies = 0;
  };

  ServiceQueue& service_queue() { return service_; }
  const Counters& counters() const { return counters_; }

  // --- Client entry points (this server is the session server) ------------------------
  // Write op (enqueue/dequeue/delete). With `icg`, a preliminary view from local
  // simulation precedes the final committed result.
  void SubmitWrite(NodeId client_id, ZabOp op, bool icg, ZabResponseFn respond);

  // Local reads: full children listing (response size grows with the queue) and the
  // constant-size head read CZK uses for dequeuing.
  void ReadChildren(NodeId client_id, const std::string& queue,
                    std::function<void(std::vector<int64_t>)> respond);
  void ReadHead(NodeId client_id, const std::string& queue, ZabResponseFn respond);
  void ReadData(NodeId client_id, const std::string& queue, int64_t seq, ZabResponseFn respond);

  // --- Zab protocol handlers (invoked at this node via the network) -------------------
  // An op is immutable once its session server accepts it, so every message of its
  // broadcast carries the one shared copy (each message still pays the op's wire bytes).
  using SharedOp = std::shared_ptr<const ZabOp>;
  void HandleForward(SharedOp op);                 // follower -> leader
  void HandlePropose(uint64_t zxid, SharedOp op);  // leader -> follower
  void HandleAck(uint64_t zxid, NodeId follower);  // follower -> leader
  void HandleCommit(uint64_t zxid, SharedOp op);   // leader -> follower

  // --- Direct local access (tests, preloading) ----------------------------------------
  QueueState& LocalQueue(const std::string& queue) { return queues_[queue]; }
  const std::map<std::string, QueueState>& queues() const { return queues_; }
  uint64_t last_applied_zxid() const { return last_applied_zxid_; }

 private:
  struct PendingClientRequest {
    NodeId client_id = kInvalidNode;
    ZabResponseFn respond;
  };
  struct PendingProposal {
    SharedOp op;
    int acks = 0;
    bool quorum_reached = false;
  };

  void LeaderPropose(SharedOp op);
  void LeaderMaybeCommit();
  void ApplyInOrder();
  void ApplyCommitted(uint64_t zxid, const ZabOp& op);
  // Takes `request.respond`: the request is erased right after.
  void RespondToClient(PendingClientRequest& request, const ZabOp& op,
                       const ZabApplyResult& result);
  ZabApplyResult Apply(const ZabOp& op);
  OpResult SimulateLocally(const ZabOp& op);

  int QuorumSize() const { return (static_cast<int>(peers_.size()) + 1) / 2 + 1; }

  Network* network_;
  EventLoop* loop_;
  NodeId id_;
  const ZabConfig* config_;
  ServiceQueue service_;
  Counters counters_;

  std::vector<ZabServer*> peers_;
  ZabServer* leader_ = nullptr;

  std::map<std::string, QueueState> queues_;

  // Session-server state: requests awaiting their committed result. This map and the
  // two per-zxid maps below insert and erase one node per op, recycled by the pool.
  PooledMap<uint64_t, PendingClientRequest> pending_requests_;
  uint64_t next_request_id_ = 1;

  // Speculative cursors for the CZK fast path: the simulation must account for this
  // server's own in-flight operations, or concurrent preliminary dequeues would all
  // promise the same head (and preliminary enqueues the same znode name), overselling
  // wildly. `speculative_dequeue_cursor_` is the smallest element sequence number not
  // yet promised to anyone; `speculative_enqueue_seq_` the next znode name to promise.
  // Applies resync both cursors forward, so they track real state once commits land.
  // This is what keeps the ticket seller's revocation count near zero (§6.3.2).
  std::map<std::string, int64_t> speculative_dequeue_cursor_;
  std::map<std::string, int64_t> speculative_enqueue_seq_;

  // Leader state.
  uint64_t next_zxid_ = 1;
  PooledMap<uint64_t, PendingProposal> proposals_;
  uint64_t last_committed_zxid_ = 0;

  // Commit application (all servers): commits buffered until contiguous.
  PooledMap<uint64_t, SharedOp> uncommitted_;
  uint64_t last_applied_zxid_ = 0;
};

}  // namespace icg

#endif  // ICG_ZAB_SERVER_H_
