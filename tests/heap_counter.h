// Counts heap allocations made through the global operator new, for tests that hold a code
// path to an allocation budget.
//
// Including this header replaces the global allocation functions of the whole executable, so
// include it from exactly one translation unit per test binary. Counting is always on; a test
// reads the count around the code it measures:
//
//   HeapCounter counter;
//   ... code under test ...
//   EXPECT_EQ(counter.allocations(), 0u);
//
// Over-aligned allocations (operator new with std::align_val_t) are not counted.

#ifndef BLOCKHEAD_TESTS_HEAP_COUNTER_H_
#define BLOCKHEAD_TESTS_HEAP_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace blockhead {

inline std::atomic<std::uint64_t> g_heap_allocations{0};

// Heap allocations made since construction.
class HeapCounter {
 public:
  HeapCounter() : start_(g_heap_allocations.load(std::memory_order_relaxed)) {}
  std::uint64_t allocations() const {
    return g_heap_allocations.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::uint64_t start_;
};

}  // namespace blockhead

void* operator new(std::size_t size) {
  blockhead::g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  blockhead::g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
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
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // BLOCKHEAD_TESTS_HEAP_COUNTER_H_
