#pragma once

#include <cstddef>
#include <memory>
#include <new>

namespace lifl::sim {

/// Per-thread free list of fixed-size blocks.
///
/// Recycles the memory of small, hot, individually allocated objects —
/// `ObjectStore` map nodes and shm-lease control blocks — so a steady
/// stream of put/release pairs stops calling the global allocator. Each
/// thread owns its own list, so no synchronisation is needed: a block freed
/// on another thread simply joins that thread's list. A list returns its
/// blocks to the global allocator when its thread exits; a block freed
/// after that (a static object torn down after the main thread's
/// thread-locals) goes straight back to the allocator.
///
/// This is an ordinary owner-side cache; the global `operator new` is not
/// replaced.
template <std::size_t Size>
class BlockPool {
  static_assert(Size >= sizeof(void*), "a block must hold a list link");

 public:
  static void* allocate() {
    if (!t_dead) {
      List& l = list();
      if (l.head != nullptr) {
        Node* n = l.head;
        l.head = n->next;
        return n;
      }
    }
    return ::operator new(Size);
  }

  static void deallocate(void* p) noexcept {
    if (t_dead) {
      ::operator delete(p);
      return;
    }
    List& l = list();
    Node* n = static_cast<Node*>(p);
    n->next = l.head;
    l.head = n;
  }

 private:
  struct Node {
    Node* next;
  };
  struct List {
    Node* head = nullptr;
    ~List() {
      while (head != nullptr) {
        Node* n = head;
        head = n->next;
        ::operator delete(n);
      }
      t_dead = true;
    }
  };

  static List& list() {
    thread_local List l;
    return l;
  }

  // Constant-initialised and trivially destructible: still readable while
  // the thread's other thread-locals are being destroyed.
  static inline thread_local bool t_dead = false;
};

/// Allocator drawing single-object allocations from `BlockPool`; arrays
/// (e.g. a hash map's bucket table) go to the global allocator.
template <typename T>
struct PooledAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "over-aligned types are not pooled");
  using value_type = T;

  PooledAllocator() noexcept = default;
  template <typename U>
  PooledAllocator(const PooledAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(Pool::allocate());
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      Pool::deallocate(p);
    } else {
      std::allocator<T>().deallocate(p, n);
    }
  }

  template <typename U>
  bool operator==(const PooledAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const PooledAllocator<U>&) const noexcept {
    return false;
  }

 private:
  using Pool = BlockPool<(sizeof(T) < sizeof(void*) ? sizeof(void*)
                                                    : sizeof(T))>;
};

}  // namespace lifl::sim
