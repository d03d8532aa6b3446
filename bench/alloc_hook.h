// Counting replacement of the global allocation operators — the tracking
// hook behind the steady-state allocation metrics.
//
// Include this header in exactly ONE translation unit of a binary (it
// defines the replaceable global operators); read `essat::bench_alloc::
// allocations()` or use `AllocationCounter` to measure a scoped region.
// Shared by perfbench, bench/fig12_city_scale.cpp (per-node memory
// budget) and the allocation tests (zero-alloc hot-path assertions and
// the per-node and per-event budgets), so the overload set — including
// the aligned forms — stays complete in all of them.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace essat::bench_alloc {

inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<std::uint64_t> g_allocated_bytes{0};

inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Cumulative bytes requested from the global operators (allocation volume,
// not live footprint: frees are not subtracted because the unsized delete
// overloads cannot know the size).
inline std::uint64_t allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

// Snapshot-based scoped counter: no global gating, so the hook itself
// stays branch-free and the region's count is simply (now - start).
class AllocationCounter {
 public:
  AllocationCounter() : start_{allocations()}, start_bytes_{allocated_bytes()} {}
  std::uint64_t count() const { return allocations() - start_; }
  std::uint64_t bytes() const { return allocated_bytes() - start_bytes_; }

 private:
  std::uint64_t start_;
  std::uint64_t start_bytes_;
};

}  // namespace essat::bench_alloc

void* operator new(std::size_t size) {
  essat::bench_alloc::g_allocations.fetch_add(1, std::memory_order_relaxed);
  essat::bench_alloc::g_allocated_bytes.fetch_add(size,
                                                  std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  essat::bench_alloc::g_allocations.fetch_add(1, std::memory_order_relaxed);
  essat::bench_alloc::g_allocated_bytes.fetch_add(size,
                                                  std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
