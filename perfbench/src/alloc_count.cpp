// Global operator new/delete replacement that counts allocations and net
// live heap bytes (malloc_usable_size), so the benchmark can report
// allocations per OSDU and heap bytes per VC without publishing anything
// into the program's own metrics registry.  The array, nothrow and sized
// forms funnel through these by default.

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.h"

namespace {

std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_net_bytes{0};

void* counted(void* p) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_net_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_net_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

std::int64_t heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t heap_bytes() { return g_net_bytes.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n ? n : 1)) return counted(p);
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, n ? n : 1) == 0)
    return counted(p);
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
