#include "src/common/inline_function.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "src/sim/event_loop.h"
#include "src/sim/service_queue.h"

namespace icg {
namespace {

// A resource whose lifetime the tests can audit: every construction must be matched by
// exactly one destruction, across inline storage, heap fallback, and relocation.
struct Tracked {
  static int live;
  static int moves;
  static int copies;

  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(const Tracked& other) : value(other.value) {
    ++live;
    ++copies;
  }
  Tracked(Tracked&& other) noexcept : value(other.value) {
    ++live;
    ++moves;
    other.value = -1;
  }
  ~Tracked() { --live; }

  int value;
};
int Tracked::live = 0;
int Tracked::moves = 0;
int Tracked::copies = 0;

struct TrackedReset {
  TrackedReset() { Tracked::live = Tracked::moves = Tracked::copies = 0; }
};

// Padding pushes a callable past a given inline capacity without changing behavior.
template <std::size_t Bytes>
struct Pad {
  unsigned char bytes[Bytes] = {};
};

TEST(InlineFunction, MoveOnlyCaptureInline) {
  TrackedReset reset;
  using Fn = InlineFunction<int(), 48>;
  auto p = std::make_unique<Tracked>(7);
  Fn f = [p = std::move(p)]() { return p->value; };  // unique_ptr: move-only closure
  static_assert(sizeof(std::unique_ptr<Tracked>) <= 48);
  EXPECT_EQ(Tracked::live, 1);
  EXPECT_EQ(f(), 7);

  // Across the wrapper move the closure relocates; the source must end up empty and the
  // resource must survive in the target, with no copy ever made.
  Fn g = std::move(f);
  EXPECT_EQ(f, nullptr);
  EXPECT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(), 7);
  EXPECT_EQ(Tracked::live, 1);
  EXPECT_EQ(Tracked::copies, 0);

  g = nullptr;
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, MoveOnlyCaptureAcrossTheSboBoundary) {
  TrackedReset reset;
  using Fn = InlineFunction<int(), 32>;
  // unique_ptr + 64 bytes of padding cannot fit a 32-byte buffer: heap fallback.
  auto p = std::make_unique<Tracked>(11);
  Fn f = [p = std::move(p), pad = Pad<64>{}]() { return p->value; };
  EXPECT_EQ(Tracked::live, 1);
  EXPECT_EQ(f(), 11);

  // Heap representation moves by pointer steal: no element moves, no copies.
  const int moves_before = Tracked::moves;
  Fn g = std::move(f);
  EXPECT_EQ(f, nullptr);
  EXPECT_EQ(g(), 11);
  EXPECT_EQ(Tracked::moves, moves_before);
  EXPECT_EQ(Tracked::copies, 0);

  g = nullptr;
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, MoveAssignReplacesMoveOnlyTarget) {
  TrackedReset reset;
  using Fn = InlineFunction<int(), 48>;
  Fn f = [p = std::make_unique<Tracked>(1)]() { return p->value; };
  Fn g = [p = std::make_unique<Tracked>(2)]() { return p->value; };
  EXPECT_EQ(Tracked::live, 2);
  g = std::move(f);  // g's old closure must be destroyed, f's relocated in
  EXPECT_EQ(Tracked::live, 1);
  EXPECT_EQ(g(), 1);
  EXPECT_EQ(f, nullptr);
}

TEST(InlineFunction, CopyableClosureStillDeepCopiesOnBothSides) {
  TrackedReset reset;
  {
    // Small: inline on both the original and the copy.
    InlineFunction<int(), 48> f = [t = Tracked(5)]() { return t.value; };
    auto g = f;
    EXPECT_EQ(f(), 5);
    EXPECT_EQ(g(), 5);
    EXPECT_GE(Tracked::copies, 1);

    // Large: heap fallback; the copy must own its own heap closure.
    InlineFunction<int(), 32> big = [t = Tracked(9), pad = Pad<64>{}]() { return t.value; };
    auto big2 = big;
    EXPECT_EQ(big(), 9);
    EXPECT_EQ(big2(), 9);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, MovedFromWrapperIsReusable) {
  TrackedReset reset;
  using Fn = InlineFunction<int(), 48>;
  Fn f = [p = std::make_unique<Tracked>(3)]() { return p->value; };
  Fn g = std::move(f);
  EXPECT_EQ(f, nullptr);
  f = [p = std::make_unique<Tracked>(4)]() { return p->value; };
  EXPECT_EQ(f(), 4);
  EXPECT_EQ(g(), 3);
  EXPECT_EQ(Tracked::live, 2);
}

// The two ways to copy a `const std::string&` parameter into a closure.
auto CaptureByCopy(const std::string& key) {
  return [key]() { return key.size(); };  // member type: const std::string
}
auto CaptureAsString(const std::string& key) {
  return [key = std::string(key)]() { return key.size(); };  // member type: std::string
}

TEST(InlineFunction, ConstStringMemberSpillsWhileItsStringTwinStaysInline) {
  using ConstMember = decltype(CaptureByCopy(""));
  using PlainMember = decltype(CaptureAsString(""));
  static_assert(sizeof(ConstMember) == sizeof(PlainMember));
  // A const member's "move" is a copy that may throw, so no capacity keeps it inline.
  EXPECT_FALSE(std::is_nothrow_move_constructible_v<ConstMember>);
  EXPECT_FALSE((InlineFunction<size_t(), 48>::StoresInline<ConstMember>()));
  EXPECT_FALSE((InlineFunction<size_t(), 1024>::StoresInline<ConstMember>()));
  EXPECT_TRUE((InlineFunction<size_t(), 48>::StoresInline<PlainMember>()));

  // Both still behave the same; only where they live differs.
  InlineFunction<size_t(), 48> spilled = CaptureByCopy("user1");
  InlineFunction<size_t(), 48> inlined = CaptureAsString("user1");
  EXPECT_EQ(spilled(), 5u);
  EXPECT_EQ(inlined(), 5u);
}

TEST(InlineFunction, ServiceQueueJobFitsEventLoopTask) {
  // The shape of a replica's peer-read job: owner, requester, key, request id and the
  // reply callback.
  auto job = [owner = static_cast<void*>(nullptr), requester = NodeId{1},
              key = std::string("user1"), request_id = uint64_t{7},
              reply = std::function<void(uint64_t)>()]() mutable {
    (void)owner;
    (void)requester;
    (void)key;
    reply(request_id);
  };
  EXPECT_TRUE(EventLoop::Task::StoresInline<ServiceQueue::Job<decltype(job)>>());
  // The wrapper adds the queue pointer and the generation, nothing more.
  EXPECT_EQ(sizeof(ServiceQueue::Job<decltype(job)>), sizeof(job) + 16);

  // And the wrapped job still runs at its completion time.
  EventLoop loop;
  ServiceQueue q(&loop, "s");
  uint64_t replied = 0;
  q.Submit(Millis(1), [reply = std::function<void(uint64_t)>(
                           [&replied](uint64_t id) { replied = id; })]() { reply(7); });
  loop.Run();
  EXPECT_EQ(replied, 7u);
}

}  // namespace
}  // namespace icg
