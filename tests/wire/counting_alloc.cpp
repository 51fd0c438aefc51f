// Counting replacements of every global operator new/delete form, for the
// zero-allocation gate (alloc_gate_test.cpp). They live in their own
// translation unit so the compiler never sees their bodies while compiling
// test code: inlined into gtest's `new TestClass`, the malloc/free inside
// them trips -Wmismatched-new-delete.
#include "counting_alloc.hpp"

#include <cstdlib>
#include <new>

namespace lumichat::wire::testing_alloc {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<bool> g_counting{false};

}  // namespace lumichat::wire::testing_alloc

namespace {

using lumichat::wire::testing_alloc::g_allocs;
using lumichat::wire::testing_alloc::g_counting;
using lumichat::wire::testing_alloc::g_frees;

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void counted_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(ptr);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = nullptr;
  const std::size_t alignment = static_cast<std::size_t>(align);
  if (::posix_memalign(&ptr, alignment < sizeof(void*) ? sizeof(void*)
                                                       : alignment,
                       size == 0 ? alignment : size) != 0) {
    return nullptr;
  }
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete[](void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}

