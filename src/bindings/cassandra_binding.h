// Binding to the quorum store (Correctable Cassandra, §5.2).
//
// Levels: WEAK (R=1, the coordinator's local state) and STRONG (R=`strong_read_quorum`).
// invoke() with both levels triggers the single-request ICG path: the coordinator flushes
// a preliminary response before gathering the quorum. With `confirmations` enabled, this
// is the *CC variant whose final views shrink to digest confirmations when they match the
// preliminary (Figure 8).
#ifndef ICG_BINDINGS_CASSANDRA_BINDING_H_
#define ICG_BINDINGS_CASSANDRA_BINDING_H_

#include <string>
#include <vector>

#include "src/correctables/binding.h"
#include "src/kvstore/cluster.h"

namespace icg {

struct CassandraBindingConfig {
  int strong_read_quorum = 2;  // R for the STRONG level (2 = CC2, 3 = CC3)
  bool confirmations = false;  // the *CC bandwidth optimization
};

class CassandraBinding : public Binding {
 public:
  CassandraBinding(KvClient* client, CassandraBindingConfig config)
      : client_(client), config_(config) {}

  std::string Name() const override { return "cassandra"; }

  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }

  InvocationPlan PlanInvocation(const Operation& op, const LevelSet& levels) override;

  // The quorum store serves multigets and ordered multiputs on the same paths as single
  // keys, so the pipeline may widen batches across ticks.
  bool SupportsBatchedReads() const override { return true; }
  bool SupportsBatchedWrites() const override { return true; }

 private:
  KvClient* client_;
  CassandraBindingConfig config_;
};

}  // namespace icg

#endif  // ICG_BINDINGS_CASSANDRA_BINDING_H_
