#include "src/zab/cluster.h"

#include <cassert>
#include <memory>
#include <utility>

namespace icg {

ZabClient::ZabClient(Network* network, NodeId id, ZabServer* session)
    : network_(network), id_(id), session_(session) {
  assert(session_ != nullptr);
}

template <typename Fn>
void ZabClient::SendToSession(int64_t bytes, Fn&& at_server) {
  network_->Send(id_, session_->id(), bytes, std::forward<Fn>(at_server));
}

void ZabClient::Enqueue(const std::string& queue, std::string data, bool icg,
                        ZabResponseFn respond) {
  ZabOp op;
  op.type = ZabOpType::kEnqueue;
  op.queue = queue;
  op.data = std::move(data);
  const int64_t bytes = op.WireBytes();
  ZabServer* session = session_;
  const NodeId self = id_;
  SendToSession(bytes, [session, self, op = std::move(op), icg,
                        respond = std::move(respond)]() mutable {
    session->SubmitWrite(self, std::move(op), icg, std::move(respond));
  });
}

void ZabClient::Dequeue(const std::string& queue, bool icg, ZabResponseFn respond) {
  ZabOp op;
  op.type = ZabOpType::kDequeue;
  op.queue = queue;
  const int64_t bytes = op.WireBytes();
  ZabServer* session = session_;
  const NodeId self = id_;
  SendToSession(bytes, [session, self, op = std::move(op), icg,
                        respond = std::move(respond)]() mutable {
    session->SubmitWrite(self, std::move(op), icg, std::move(respond));
  });
}

void ZabClient::DeleteElement(const std::string& queue, int64_t seq, ZabResponseFn respond) {
  ZabOp op;
  op.type = ZabOpType::kDelete;
  op.queue = queue;
  op.seq = seq;
  const int64_t bytes = op.WireBytes() + 8;
  ZabServer* session = session_;
  const NodeId self = id_;
  SendToSession(bytes, [session, self, op = std::move(op),
                        respond = std::move(respond)]() mutable {
    session->SubmitWrite(self, std::move(op), /*icg=*/false, std::move(respond));
  });
}

void ZabClient::Peek(const std::string& queue, ZabResponseFn respond) {
  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(queue.size());
  ZabServer* session = session_;
  const NodeId self = id_;
  SendToSession(bytes, [session, self, queue, respond = std::move(respond)]() mutable {
    session->ReadHead(self, queue, std::move(respond));
  });
}

void ZabClient::GetChildren(const std::string& queue,
                            std::function<void(std::vector<int64_t>)> respond) {
  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(queue.size());
  ZabServer* session = session_;
  const NodeId self = id_;
  SendToSession(bytes, [session, self, queue, respond = std::move(respond)]() mutable {
    session->ReadChildren(self, queue, std::move(respond));
  });
}

void ZabClient::ReadData(const std::string& queue, int64_t seq, ZabResponseFn respond) {
  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(queue.size()) + 8;
  ZabServer* session = session_;
  const NodeId self = id_;
  SendToSession(bytes, [session, self, queue, seq, respond = std::move(respond)]() mutable {
    session->ReadData(self, queue, seq, std::move(respond));
  });
}

void ZabClient::RecipeDequeueZk(const std::string& queue,
                                std::function<void(StatusOr<OpResult>)> done) {
  // The Curator-style distributed-queue recipe: fetch the whole children listing, then
  // walk it in order, attempting getData+delete per child; a delete conflict (another
  // client won the race) moves on to the *next child of the cached listing* — only an
  // exhausted listing triggers a fresh getChildren. Each in-flight callback holds the
  // step function, so the async chain survives as many retries as contention requires
  // and is freed when the last callback is; the step holds itself only weakly.
  struct WalkState {
    std::vector<int64_t> children;
    size_t next_index = 0;
  };
  auto state = std::make_shared<WalkState>();
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, queue, done = std::move(done), state,
           weak_step = std::weak_ptr<std::function<void()>>(step)]() {
    const auto step = weak_step.lock();
    if (state->next_index >= state->children.size()) {
      // Listing exhausted (or first iteration): fetch the full queue listing.
      GetChildren(queue, [this, queue, done, state, step](std::vector<int64_t> children) {
        if (children.empty()) {
          done(OpResult{});  // empty queue: found=false
          return;
        }
        if (!state->children.empty()) {
          recipe_retries_++;  // a re-listing forced by contention
        }
        state->children = std::move(children);
        state->next_index = 0;
        (*step)();
      });
      return;
    }
    const int64_t candidate = state->children[state->next_index++];
    ReadData(queue, candidate,
             [this, queue, candidate, done, state, step](StatusOr<OpResult> data, bool,
                                                         ResponseKind) {
               if (!data.ok() || !data->found) {
                 recipe_retries_++;
                 (*step)();  // candidate vanished; try the next cached child
                 return;
               }
               const std::string element = data->value;
               DeleteElement(queue, candidate,
                             [element, candidate, done, step, this](StatusOr<OpResult> del,
                                                                    bool, ResponseKind) {
                               if (del.ok() && del->found) {
                                 OpResult out;
                                 out.found = true;
                                 out.value = element;
                                 out.seqno = candidate;
                                 done(out);
                               } else {
                                 recipe_retries_++;
                                 (*step)();  // lost the race; next cached child
                               }
                             });
             });
  };
  (*step)();
}

void ZabClient::RecipeDequeueCzk(const std::string& queue,
                                 std::function<void(StatusOr<OpResult>)> done) {
  // Same ownership as RecipeDequeueZk: in-flight callbacks hold the attempt function,
  // which holds itself only weakly.
  auto attempt = std::make_shared<std::function<void()>>();
  *attempt = [this, queue, done = std::move(done),
              weak_attempt = std::weak_ptr<std::function<void()>>(attempt)]() {
    const auto attempt = weak_attempt.lock();
    Peek(queue, [this, queue, done, attempt](StatusOr<OpResult> head, bool, ResponseKind) {
      if (!head.ok() || !head->found) {
        done(OpResult{});
        return;
      }
      const std::string element = head->value;
      const int64_t seq = head->seqno;
      DeleteElement(queue, seq,
                    [element, seq, done, attempt, this](StatusOr<OpResult> del, bool,
                                                        ResponseKind) {
                      if (del.ok() && del->found) {
                        OpResult out;
                        out.found = true;
                        out.value = element;
                        out.seqno = seq;
                        done(out);
                      } else {
                        recipe_retries_++;
                        (*attempt)();
                      }
                    });
    });
  };
  (*attempt)();
}

int64_t ZabClient::LinkBytes() const { return network_->BytesBetween(id_, session_->id()); }

int64_t ZabClient::LinkMessages() const {
  return network_->MessagesBetween(id_, session_->id());
}

ZabCluster::ZabCluster(Network* network, Topology* topology, const ZabConfig* config,
                       const std::vector<Region>& regions, Region leader_region)
    : network_(network), topology_(topology) {
  for (const Region region : regions) {
    const NodeId id = topology->AddNode(region, std::string("zk-") + RegionName(region));
    servers_.push_back(
        std::make_unique<ZabServer>(network, id, config, std::string("zk-") + RegionName(region)));
    if (region == leader_region && leader_ == nullptr) {
      leader_ = servers_.back().get();
    }
  }
  assert(leader_ != nullptr && "leader_region must be one of the ensemble regions");
  for (auto& server : servers_) {
    std::vector<ZabServer*> peers;
    for (auto& other : servers_) {
      if (other.get() != server.get()) {
        peers.push_back(other.get());
      }
    }
    server->SetEnsemble(std::move(peers), leader_);
  }
}

ZabServer* ZabCluster::ServerIn(Region region) {
  for (auto& server : servers_) {
    if (topology_->RegionOf(server->id()) == region) {
      return server.get();
    }
  }
  return nullptr;
}

std::unique_ptr<ZabClient> ZabCluster::MakeClient(Region client_region, Region session_region) {
  ZabServer* session = ServerIn(session_region);
  assert(session != nullptr);
  const NodeId id =
      topology_->AddNode(client_region, std::string("zkcli-") + RegionName(client_region));
  return std::make_unique<ZabClient>(network_, id, session);
}

void ZabCluster::PreloadQueue(const std::string& queue, int64_t count,
                              const std::string& prefix) {
  for (auto& server : servers_) {
    QueueState& state = server->LocalQueue(queue);
    for (int64_t i = 0; i < count; ++i) {
      state.Enqueue(prefix + std::to_string(i));
    }
  }
}

}  // namespace icg
