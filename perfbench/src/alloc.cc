#include "perfbench/src/alloc.h"

#include <cstdlib>
#include <new>

namespace {

bool g_counting = false;
int64_t g_counted = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_counted;
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

int64_t CountedAllocations() { return g_counted; }

CountAllocations::CountAllocations() : saved_(g_counting) { g_counting = true; }
CountAllocations::~CountAllocations() { g_counting = saved_; }

PauseAllocations::PauseAllocations() : saved_(g_counting) { g_counting = false; }
PauseAllocations::~PauseAllocations() { g_counting = saved_; }

}  // namespace perfbench
