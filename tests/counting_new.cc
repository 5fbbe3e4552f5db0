#include "counting_new.h"

#include <cstdlib>
#include <new>

namespace lbsagg {
namespace testing_alloc {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<uint64_t> g_deallocations{0};

namespace {

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void CountedFree(void* p) {
  if (p != nullptr) g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace
}  // namespace testing_alloc
}  // namespace lbsagg

using lbsagg::testing_alloc::CountedAlloc;
using lbsagg::testing_alloc::CountedFree;

// Every plain and nothrow form, so each allocation pairs with its own free
// (sanitizer builds check that new/delete and malloc/free pair up).
void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
