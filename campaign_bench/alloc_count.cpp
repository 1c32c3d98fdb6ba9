// Counting replacement of the global operator new/delete for the campaign
// benchmark binary. Each thread owns a padded counter slot, so the count
// costs one uncontended store per allocation and adds no shared cache-line
// traffic between the sharded core's worker threads; threads beyond the
// slot table share one atomic.

#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

constexpr std::uint32_t kSlots = 64;
constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};

Slot g_slots[kSlots];
Slot g_overflow;
std::atomic<std::uint32_t> g_next_slot{0};
// Constant-initialised and trivially destructible, so reading it from
// inside operator new never runs TLS set-up code.
thread_local std::uint32_t t_slot = kUnassigned;

void count_one() {
  if (t_slot == kUnassigned) {
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
  }
  if (t_slot < kSlots) {
    // Single writer per slot: a plain load + store, no locked RMW.
    auto& n = g_slots[t_slot].n;
    n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  } else {
    g_overflow.n.fetch_add(1, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t n) {
  count_one();
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  count_one();
  std::size_t align = static_cast<std::size_t>(al);
  if (align < sizeof(void*)) align = sizeof(void*);
  if (n == 0) n = 1;
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, align, n) == 0) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

}  // namespace

namespace lifl::bench {

std::uint64_t allocation_count() {
  std::uint64_t total = g_overflow.n.load(std::memory_order_relaxed);
  for (const auto& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

}  // namespace lifl::bench

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(n, al);
  } catch (...) {
    return nullptr;
  }
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
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
