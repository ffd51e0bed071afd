#include "src/harness/executors.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

namespace icg {

const char* KvModeName(KvMode mode) {
  switch (mode) {
    case KvMode::kWeakOnly:
      return "weak(R=1)";
    case KvMode::kStrongOnly:
      return "strong";
    case KvMode::kIcg:
      return "icg";
  }
  return "?";
}

int64_t KeyIndexOf(const std::string& ycsb_key) {
  size_t pos = 0;
  while (pos < ycsb_key.size() && !isdigit(static_cast<unsigned char>(ycsb_key[pos]))) {
    pos++;
  }
  return pos < ycsb_key.size() ? std::stoll(ycsb_key.substr(pos)) : 0;
}

void PreloadYcsbDataset(KvCluster* cluster, const WorkloadConfig& config) {
  const std::string filler(static_cast<size_t>(config.ValueBytes()), 'x');
  for (int64_t i = 0; i < config.record_count; ++i) {
    cluster->Preload(CoreWorkload::KeyForIndex(i), filler);
  }
}

OpExecutor MakeKvExecutor(CorrectableClient* client, KvMode mode) {
  return [client, mode](const YcsbOp& op, std::function<void(OpOutcome)> done) {
    EventLoop* loop = client->loop();
    const SimTime start = loop->Now();
    auto now = [loop, start]() { return loop->Now() - start; };

    if (!op.is_read) {
      client->InvokeStrong(Operation::Put(op.key, op.value))
          .SetCallbacks(nullptr,
                        [done, now](const View<OpResult>&) {
                          OpOutcome outcome;
                          outcome.final_latency = now();
                          done(outcome);
                        },
                        [done, now](const Status&) {
                          OpOutcome outcome;
                          outcome.error = true;
                          outcome.final_latency = now();
                          done(outcome);
                        });
      return;
    }

    switch (mode) {
      case KvMode::kWeakOnly:
      case KvMode::kStrongOnly: {
        auto read = mode == KvMode::kWeakOnly ? client->InvokeWeak(Operation::Get(op.key))
                                              : client->InvokeStrong(Operation::Get(op.key));
        read.SetCallbacks(nullptr,
                          [done, now](const View<OpResult>&) {
                            OpOutcome outcome;
                            outcome.final_latency = now();
                            done(outcome);
                          },
                          [done, now](const Status&) {
                            OpOutcome outcome;
                            outcome.error = true;
                            outcome.final_latency = now();
                            done(outcome);
                          });
        return;
      }
      case KvMode::kIcg: {
        auto state = std::make_shared<OpOutcome>();
        auto prelim_value = std::make_shared<OpResult>();
        client->Invoke(Operation::Get(op.key))
            .SetCallbacks(
                [state, prelim_value, now](const View<OpResult>& v) {
                  if (!state->preliminary_latency.has_value()) {
                    state->preliminary_latency = now();
                    *prelim_value = v.value;
                  }
                },
                [state, prelim_value, done, now](const View<OpResult>& v) {
                  state->final_latency = now();
                  if (state->preliminary_latency.has_value()) {
                    state->diverged =
                        !v.confirmed_preliminary && !(v.value == *prelim_value);
                  }
                  done(*state);
                },
                [state, done, now](const Status&) {
                  state->error = true;
                  state->final_latency = now();
                  done(*state);
                });
        return;
      }
    }
  };
}

namespace {

// Shared by the two application executors: read via the speculation pattern, write via
// the app's update operation.
OpExecutor MakeRefAppExecutor(EventLoop* loop, bool use_icg,
                              std::function<void(int64_t uid, bool icg,
                                                 std::function<void(RefFetchOutcome)>)> read_fn,
                              std::function<void(int64_t uid, int64_t version,
                                                 std::function<void(bool)>)> write_fn,
                              int64_t entity_count) {
  auto version_counter = std::make_shared<int64_t>(0);
  return [loop, use_icg, read_fn = std::move(read_fn), write_fn = std::move(write_fn),
          entity_count, version_counter](const YcsbOp& op, std::function<void(OpOutcome)> done) {
    const int64_t uid = KeyIndexOf(op.key) % entity_count;
    const SimTime start = loop->Now();
    if (op.is_read) {
      read_fn(uid, use_icg, [done](RefFetchOutcome outcome) {
        OpOutcome out;
        out.error = !outcome.ok;
        out.final_latency = outcome.latency;
        out.preliminary_latency = outcome.preliminary_latency;
        out.diverged = outcome.misspeculated;
        done(out);
      });
    } else {
      (*version_counter)++;
      write_fn(uid, *version_counter, [done, loop, start](bool ok) {
        OpOutcome out;
        out.error = !ok;
        out.final_latency = loop->Now() - start;
        done(out);
      });
    }
  };
}

}  // namespace

OpExecutor MakeAdsExecutor(AdsSystem* ads, bool use_icg) {
  return MakeRefAppExecutor(
      ads->ClientLoop(), use_icg,
      [ads](int64_t uid, bool icg, std::function<void(RefFetchOutcome)> done) {
        ads->FetchAdsByUserId(uid, icg, std::move(done));
      },
      [ads](int64_t uid, int64_t version, std::function<void(bool)> done) {
        ads->UpdateProfile(uid, version, std::move(done));
      },
      ads->config().num_profiles);
}

OpExecutor MakeTwissandraExecutor(Twissandra* twissandra, bool use_icg) {
  return MakeRefAppExecutor(
      twissandra->ClientLoop(), use_icg,
      [twissandra](int64_t uid, bool icg, std::function<void(RefFetchOutcome)> done) {
        twissandra->GetTimeline(uid, icg, std::move(done));
      },
      [twissandra](int64_t uid, int64_t version, std::function<void(bool)> done) {
        twissandra->PostTweet(uid, version, std::move(done));
      },
      twissandra->config().num_users);
}

namespace {

// CPUs the calling thread may run on, other than the one it is on now: where the
// helper threads should start.
std::vector<int> SpareCpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int current = sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed) && cpu != current) {
        cpus.push_back(cpu);
      }
    }
  }
#endif
  return cpus;
}

// Moves the calling thread onto `cpu`, then hands back the full `allowed` mask so the
// scheduler stays free to move it later. A new thread starts on its creator's CPU, and
// some kernels leave all of a burst of new threads stacked there for hundreds of
// milliseconds; on a 4-vCPU VM that alone serialised the worlds.
void StartOn(int cpu) {
#ifdef __linux__
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
#else
  (void)cpu;
#endif
}

}  // namespace

void RunWorldsUntil(const std::vector<SimWorld*>& worlds, SimTime until, int threads) {
  std::atomic<size_t> next{0};
  const auto drain = [&]() {
    for (size_t i = next++; i < worlds.size(); i = next++) {
      worlds[i]->loop().RunUntil(until);
    }
  };
  const size_t width = std::min(worlds.size(), static_cast<size_t>(std::max(threads, 1)));
  const std::vector<int> cpus = width > 1 ? SpareCpus() : std::vector<int>();
  // A helper's exception is rethrown on the calling thread once every helper is joined.
  std::vector<std::exception_ptr> failures(width);
  {
    std::vector<std::jthread> helpers;  // joined on scope exit, unwinding included
    for (size_t t = 1; t < width; ++t) {
      const int cpu = cpus.empty() ? -1 : cpus[(t - 1) % cpus.size()];
      helpers.emplace_back([&drain, &failure = failures[t], cpu]() {
        try {
          if (cpu >= 0) {
            StartOn(cpu);
          }
          drain();
        } catch (...) {
          failure = std::current_exception();
        }
      });
    }
    drain();
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure) {
      std::rethrow_exception(failure);
    }
  }
}

void AddClientStats(ClientStats& into, const ClientStats& from) {
  into.invocations += from.invocations;
  into.weak_invocations += from.weak_invocations;
  into.strong_invocations += from.strong_invocations;
  into.icg_invocations += from.icg_invocations;
  into.views_delivered += from.views_delivered;
  into.confirmations += from.confirmations;
  into.divergences += from.divergences;
  into.stale_views_dropped += from.stale_views_dropped;
  into.errors += from.errors;
  into.timeouts += from.timeouts;
  into.batched_invocations += from.batched_invocations;
  into.coalesced_reads += from.coalesced_reads;
  into.cross_tick_batches += from.cross_tick_batches;
  into.batched_writes += from.batched_writes;
  into.overload_sheds += from.overload_sheds;
  into.dropped_emissions += from.dropped_emissions;
  into.preliminary_errors += from.preliminary_errors;
}

}  // namespace icg
