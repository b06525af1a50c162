// Global operator new/delete replacement that counts heap allocations, so
// the data-plane throughput benches can report allocations per delivered
// OSDU and the scale bench per-VC live heap bytes.  Include from the
// bench's own translation unit only (each bench is a single-TU binary;
// replacing the global allocation functions twice in one binary is an ODR
// violation).
//
// Only the two core forms are replaced; the array, nothrow and sized
// variants all funnel through these by default.  The aligned forms are
// replaced too because standard containers may over-align under some
// toolchains.

#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace cmtos::bench {

inline std::atomic<std::int64_t> g_heap_allocs{0};
inline std::atomic<std::int64_t> g_heap_alloc_bytes{0};
inline std::atomic<std::int64_t> g_heap_live_bytes{0};

/// Number of operator-new calls since process start.  Deterministic in a
/// single-threaded run, so snapshot deltas are diffable across runs.
inline std::int64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

/// Bytes requested by those calls (frees are not subtracted).
inline std::int64_t heap_alloc_bytes() {
  return g_heap_alloc_bytes.load(std::memory_order_relaxed);
}

/// Bytes held by live allocations (malloc_usable_size, so allocator
/// rounding counts): allocations add, frees subtract.
inline std::int64_t heap_live_bytes() {
  return g_heap_live_bytes.load(std::memory_order_relaxed);
}

inline void* counted_alloc(void* p, std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_alloc_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  g_heap_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  return p;
}

inline void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_heap_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  std::free(p);
}

}  // namespace cmtos::bench

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n ? n : 1)) return cmtos::bench::counted_alloc(p, n);
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, n ? n : 1) == 0)
    return cmtos::bench::counted_alloc(p, n);
  throw std::bad_alloc();
}

// The operators above allocate with malloc, so free() is the matching
// release.  GCC cannot see that once it inlines one of these into a
// caller, and reports the pair as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { cmtos::bench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { cmtos::bench::counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { cmtos::bench::counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  cmtos::bench::counted_free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
