#include "heap_counter.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
int64_t g_allocations = 0;
}  // namespace

int64_t HeapAllocations() { return g_allocations; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  ++perfbench::g_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too, so every plain allocation is counted and freed by
// the same pair (sanitizers flag a mix of their new and this delete).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++perfbench::g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
