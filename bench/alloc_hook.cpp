#include "bench/alloc_hook.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
// Relaxed: some benches run sweep points on pool threads after their
// single-threaded probe windows have been read.
std::atomic<std::uint64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
}  // namespace

std::uint64_t dclue::bench::alloc_calls() {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
