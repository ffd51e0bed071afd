#include "perfbench/src/checks.h"

namespace perfbench {

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

uint64_t FoldU64(uint64_t hash, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

uint64_t ValueDigest(bool found, std::string_view value, int64_t seqno) {
  return FoldU64(FoldU64(Fnv1a(value), found ? 1 : 0), static_cast<uint64_t>(seqno));
}

void Fingerprint::Fold(uint64_t invocation, int level, int64_t delivered_at,
                       uint64_t digest) {
  hash_ = FoldU64(hash_, invocation);
  hash_ = FoldU64(hash_, static_cast<uint64_t>(level));
  hash_ = FoldU64(hash_, static_cast<uint64_t>(delivered_at));
  hash_ = FoldU64(hash_, digest);
}

uint64_t OutputChecker::PairDigest(std::string_view key, std::string_view value) {
  return Fnv1a(value, FoldU64(Fnv1a(key), key.size()));
}

void OutputChecker::Allow(std::string_view key, std::string_view value) {
  allowed_.insert(PairDigest(key, value));
}

void OutputChecker::Reserve(size_t invocations) {
  invocations_.reserve(invocations_.size() + invocations);
  allowed_.reserve(allowed_.size() + invocations);
  dequeued_.reserve(dequeued_.size() + invocations);
}

void OutputChecker::Expect(uint64_t id, int weakest, int strongest) {
  if (invocations_.size() <= id) {
    invocations_.resize(id + 1);
  }
  invocations_[id] = Invocation{static_cast<int8_t>(weakest), static_cast<int8_t>(strongest),
                                -1, false};
}

void OutputChecker::Terminate(Invocation& inv) {
  if (inv.terminal) {
    violations_.terminal++;
  }
  inv.terminal = true;
}

void OutputChecker::View(uint64_t id, int level, bool is_final, std::string_view key,
                         bool found, std::string_view value, bool check_value) {
  Invocation& inv = invocations_.at(id);
  if (inv.terminal && !is_final) {
    violations_.terminal++;  // a preliminary after the terminal view
  }
  if (level < inv.weakest || level > inv.strongest || level < inv.last) {
    violations_.order++;
  }
  inv.last = static_cast<int8_t>(level);
  if (is_final) {
    if (level != inv.strongest) {
      violations_.final_level++;
    }
    Terminate(inv);
  }
  if (check_value && (!found || !allowed_.contains(PairDigest(key, value)))) {
    violations_.thin_air++;
  }
}

void OutputChecker::Error(uint64_t id) { Terminate(invocations_.at(id)); }

void OutputChecker::FinalDequeue(std::string_view queue, std::string_view element) {
  const uint64_t digest = PairDigest(queue, element);
  if (!allowed_.contains(digest)) {
    violations_.unknown_dequeue++;
  }
  if (++dequeued_[digest] > 1) {
    violations_.double_dequeue++;
  }
}

void OutputChecker::Finish() {
  for (const Invocation& inv : invocations_) {
    if (!inv.terminal) {
      violations_.unterminated++;
    }
  }
}

}  // namespace perfbench
