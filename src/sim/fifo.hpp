#pragma once

#include <cstddef>
#include <new>
#include <utility>

namespace lifl::sim {

/// Chunked FIFO queue — the hot-path replacement for `std::deque`.
///
/// Like libstdc++'s deque it stores elements in fixed ~512-byte chunks, so
/// its footprint follows its length. Unlike the deque, which frees a chunk
/// whenever `pop_front` leaves one and allocates one whenever `push_back`
/// needs one (every 512 / sizeof(T) pushes, even for a queue that never
/// holds more than one element), it keeps up to `kSpareChunks` drained
/// chunks (32 KiB) for reuse. Steady-state traffic, and length swings up to
/// that size, are allocation-free; a longer burst returns its surplus
/// chunks to the allocator as it drains instead of pinning its peak
/// footprint.
template <typename T>
class Fifo {
  struct Chunk;

 public:
  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() {
    clear();
    delete head_;
    while (spare_ != nullptr) delete std::exchange(spare_, spare_->next);
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// The oldest element; the queue must not be empty.
  T& front() noexcept { return *head_->at(head_i_); }

  void push_back(T v) {
    if (tail_ == nullptr || tail_i_ == kPerChunk) {
      Chunk* c = new_chunk();
      if (tail_ != nullptr) {
        tail_->next = c;
      } else {
        head_ = c;
        head_i_ = 0;
      }
      tail_ = c;
      tail_i_ = 0;
    }
    ::new (static_cast<void*>(tail_->at(tail_i_))) T(std::move(v));
    ++tail_i_;
    ++size_;
  }

  /// Move the front element out and drop it from the queue.
  T take_front() {
    T* p = head_->at(head_i_);
    T v = std::move(*p);
    p->~T();
    ++head_i_;
    --size_;
    if (size_ == 0) {
      // Empty: rewind within the (sole) chunk instead of moving on.
      head_i_ = 0;
      tail_i_ = 0;
    } else if (head_i_ == kPerChunk) {
      Chunk* done = head_;
      head_ = head_->next;
      head_i_ = 0;
      recycle(done);
    }
    return v;
  }

  /// Destroy every queued element.
  void clear() {
    while (size_ != 0) take_front();
  }

  class const_iterator {
   public:
    const_iterator(const Chunk* c, std::size_t i) : c_(c), i_(i) {}
    const T& operator*() const noexcept { return *c_->at(i_); }
    const_iterator& operator++() noexcept {
      if (++i_ == kPerChunk && c_->next != nullptr) {
        c_ = c_->next;
        i_ = 0;
      }
      return *this;
    }
    bool operator!=(const const_iterator& o) const noexcept {
      return c_ != o.c_ || i_ != o.i_;
    }

   private:
    const Chunk* c_;
    std::size_t i_;
  };
  const_iterator begin() const noexcept {
    return size_ == 0 ? end() : const_iterator{head_, head_i_};
  }
  const_iterator end() const noexcept { return {tail_, tail_i_}; }

 private:
  static constexpr std::size_t kPerChunk =
      sizeof(T) >= 256 ? 1 : 512 / sizeof(T);

  struct Chunk {
    Chunk* next = nullptr;
    alignas(T) unsigned char raw[kPerChunk * sizeof(T)];
    T* at(std::size_t i) noexcept {
      return std::launder(reinterpret_cast<T*>(raw) + i);
    }
    const T* at(std::size_t i) const noexcept {
      return std::launder(reinterpret_cast<const T*>(raw) + i);
    }
  };

  static constexpr std::size_t kSpareChunks = 64;

  Chunk* new_chunk() {
    if (spare_ == nullptr) return new Chunk;
    Chunk* c = std::exchange(spare_, spare_->next);
    --spares_;
    c->next = nullptr;
    return c;
  }

  void recycle(Chunk* c) {
    if (spares_ == kSpareChunks) {
      delete c;
      return;
    }
    c->next = spare_;
    spare_ = c;
    ++spares_;
  }

  Chunk* head_ = nullptr;
  Chunk* tail_ = nullptr;
  std::size_t head_i_ = 0;  ///< next element to pop, in `head_`
  std::size_t tail_i_ = 0;  ///< next free slot, in `tail_`
  std::size_t size_ = 0;
  Chunk* spare_ = nullptr;  ///< stack of drained chunks kept for reuse
  std::size_t spares_ = 0;
};

}  // namespace lifl::sim
