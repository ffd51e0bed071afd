// Thread-local free-list pooling for the pipeline's short-lived shared objects.
//
// Every invocation allocates a handful of small shared structures (per-waiter delivery
// state, batch cohorts, plan runs, Correctable shared state) whose lifetimes end within
// a few virtual-time ticks. PooledMakeShared gives them allocate_shared semantics —
// object and control block in one allocation — with that one allocation recycled through
// a thread-local free list, so steady-state invocation traffic touches the global
// allocator zero times.
//
// PoolAllocator is also a standard allocator, usable for node containers on the hot path
// (PooledMap), where it recycles node blocks the same way.
//
// Blocks are segregated by exact size at compile time (one list per instantiated block
// type), capped per thread, and released to ::operator delete on thread exit. Freeing on
// a different thread than the allocating one is safe: blocks are interchangeable and
// simply join the freeing thread's list.
#ifndef ICG_COMMON_POOLED_H_
#define ICG_COMMON_POOLED_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <vector>

namespace icg {

template <typename U>
class PoolAllocator {
 public:
  using value_type = U;

  static_assert(alignof(U) <= alignof(std::max_align_t),
                "PoolAllocator does not support over-aligned types");

  PoolAllocator() = default;
  template <typename V>
  PoolAllocator(const PoolAllocator<V>&) {}  // NOLINT(google-explicit-constructor)

  U* allocate(std::size_t n) {
    if (n == 1) {
      auto& free_blocks = FreeList().blocks;
      if (!free_blocks.empty()) {
        void* block = free_blocks.back();
        free_blocks.pop_back();
        return static_cast<U*>(block);
      }
    }
    return static_cast<U*>(::operator new(n * sizeof(U)));
  }

  void deallocate(U* p, std::size_t n) {
    if (n == 1) {
      auto& free_blocks = FreeList().blocks;
      if (free_blocks.size() < kMaxFreePerThread) {
        free_blocks.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }

  template <typename V>
  bool operator==(const PoolAllocator<V>&) const {
    return true;
  }

 private:
  // Bounds idle memory per (thread, block type); overflow falls through to the heap.
  static constexpr std::size_t kMaxFreePerThread = 1024;

  struct FreeListHolder {
    std::vector<void*> blocks;
    ~FreeListHolder() {
      for (void* block : blocks) {
        ::operator delete(block);
      }
    }
  };

  static FreeListHolder& FreeList() {
    thread_local FreeListHolder holder;
    return holder;
  }
};

// An ordered map whose nodes come from the pool, for maps on the hot path that insert
// and erase a node per operation (in-flight requests, open batches).
template <typename K, typename V>
using PooledMap = std::map<K, V, std::less<K>, PoolAllocator<std::pair<const K, V>>>;

// Drop-in make_shared replacement drawing from the thread-local pool.
template <typename T, typename... Args>
std::shared_ptr<T> PooledMakeShared(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>(), std::forward<Args>(args)...);
}

}  // namespace icg

#endif  // ICG_COMMON_POOLED_H_
