// Replacements for every global operator new / operator delete form. Each
// new form counts one allocation when the calling thread is counting, then
// allocates with malloc (or aligned_alloc); each delete form frees.

#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

// Trivially initialised thread-locals: safe to touch from operator new at
// any point of the program's life, and free of cross-thread races.
thread_local bool t_counting = false;
thread_local std::uint64_t t_allocs = 0;

inline void note() {
  if (t_counting) ++t_allocs;
}

void* alloc_or_null(std::size_t n) {
  note();
  return std::malloc(n == 0 ? 1 : n);
}

void* alloc_aligned_or_null(std::size_t n, std::align_val_t al) {
  note();
  auto a = static_cast<std::size_t>(al);
  if (a < sizeof(void*)) a = sizeof(void*);
  // aligned_alloc needs the size to be a multiple of the alignment.
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, size);
}

void* alloc(std::size_t n) {
  if (void* p = alloc_or_null(n)) return p;
  throw std::bad_alloc();
}

void* alloc_aligned(std::size_t n, std::align_val_t al) {
  if (void* p = alloc_aligned_or_null(n, al)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

void AllocCounter::start() {
  t_allocs = 0;
  t_counting = true;
}

std::uint64_t AllocCounter::stop() {
  t_counting = false;
  return t_allocs;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return alloc(n); }
void* operator new[](std::size_t n) { return alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_or_null(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_or_null(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return alloc_aligned(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return alloc_aligned_or_null(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return alloc_aligned_or_null(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
