#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lifl::sim {

/// Move-only callable with 24 bytes of inline storage — the event-core
/// replacement for `std::function<void(Args...)>`.
///
/// `std::function`'s 16-byte small-buffer spills a three-pointer capture to
/// a heap allocation, and every queue move pays an indirect manager call.
/// `TaskFn` widens the inline window to 24 bytes while keeping the whole
/// callable at 32 — an event slab record stays one cache line — and moves
/// and invokes through a single static vtable. `Task` (the nullary alias)
/// is the simulator's event callback; `TaskFn<fl::ModelUpdate>` is the
/// update-pool waiter.
template <typename... Args>
class TaskFn {
 public:
  TaskFn() noexcept = default;
  TaskFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TaskFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  TaskFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  TaskFn(TaskFn&& other) noexcept { move_from(other); }
  TaskFn& operator=(TaskFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  TaskFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  TaskFn(const TaskFn&) = delete;
  TaskFn& operator=(const TaskFn&) = delete;

  ~TaskFn() { reset(); }

  /// Replace the held callable with `f`, built directly in this object's
  /// storage — the construct-once path the event core schedules through, so
  /// a capture is never built on the stack and then relocated. A `TaskFn`
  /// argument (which must be an rvalue) is moved in, not wrapped. If
  /// building `f` throws, this object is left empty.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (std::is_same_v<Fn, TaskFn>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "TaskFn is move-only: pass it as an rvalue");
      move_from(f);
    } else {
      static_assert(std::is_invocable_r_v<void, Fn&, Args...>,
                    "callable does not match the TaskFn signature");
      construct(std::forward<F>(f));
    }
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()(Args... args) {
    vt_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  static constexpr std::size_t kInlineBytes = 24;

  struct VTable {
    void (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src);  ///< move into dst, destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static const VTable* inline_vtable() noexcept {
    static constexpr VTable vt = {
        [](void* p, Args&&... args) {
          (*std::launder(reinterpret_cast<Fn*>(p)))(
              std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
          Fn* s = std::launder(reinterpret_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*s));
          s->~Fn();
        },
        [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }};
    return &vt;
  }

  template <typename Fn>
  static const VTable* heap_vtable() noexcept {
    static constexpr VTable vt = {
        [](void* p, Args&&... args) {
          (**reinterpret_cast<Fn**>(p))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
          *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
        },
        [](void* p) { delete *reinterpret_cast<Fn**>(p); }};
    return &vt;
  }

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = inline_vtable<Fn>();
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      vt_ = heap_vtable<Fn>();
    }
  }

  void move_from(TaskFn& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

/// The simulator's nullary event callback.
using Task = TaskFn<>;

}  // namespace lifl::sim
