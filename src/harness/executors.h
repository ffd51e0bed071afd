// Bridges from the YCSB runner to the systems under test: executors that issue one
// workload operation through the Correctables stack and report latencies/divergence.
#ifndef ICG_HARNESS_EXECUTORS_H_
#define ICG_HARNESS_EXECUTORS_H_

#include <string>
#include <vector>

#include "src/apps/ads.h"
#include "src/apps/twissandra.h"
#include "src/correctables/client.h"
#include "src/harness/deployment.h"
#include "src/kvstore/cluster.h"
#include "src/ycsb/runner.h"

namespace icg {

// How a raw key-value executor maps reads onto the consistency API.
enum class KvMode {
  kWeakOnly,    // baseline C1: invokeWeak (R=1)
  kStrongOnly,  // baseline C2/C3: invokeStrong (R=quorum)
  kIcg,         // CC: invoke() — preliminary + final
};

const char* KvModeName(KvMode mode);

// Executor over plain YCSB records (Figures 6, 7, 8). Reads follow `mode`; updates are
// writes at W=1 in every mode.
OpExecutor MakeKvExecutor(CorrectableClient* client, KvMode mode);

// Executor over the ad-serving system (Figure 11): reads are fetchAdsByUserId (with or
// without speculation); updates rewrite the profile's ad references.
OpExecutor MakeAdsExecutor(AdsSystem* ads, bool use_icg);

// Executor over Twissandra (Figure 11): reads are get_timeline; updates post tweets.
OpExecutor MakeTwissandraExecutor(Twissandra* twissandra, bool use_icg);

// Extracts the numeric index from a YCSB key ("user123" -> 123).
int64_t KeyIndexOf(const std::string& ycsb_key);

// Installs `record_count` records of the workload's value size on every replica.
void PreloadYcsbDataset(KvCluster* cluster, const WorkloadConfig& config);

// --- Parallel execution -------------------------------------------------------------

// Runs every world's EventLoop to virtual time `until`. The worlds must be independent
// (no world touches another's objects), so each runs to the horizon with no
// synchronisation at all. With `threads <= 1` they run in order on the calling thread;
// otherwise up to `threads` threads (the caller included) claim worlds from a shared
// index. Every world's history is a pure function of its own seed, so the thread count
// changes wall time only.
void RunWorldsUntil(const std::vector<SimWorld*>& worlds, SimTime until, int threads);

// Field-wise sum of client counters, for folding several clients or worlds together.
void AddClientStats(ClientStats& into, const ClientStats& from);

}  // namespace icg

#endif  // ICG_HARNESS_EXECUTORS_H_
