#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lifl::sim {

/// Slot-indexed storage recycled through a free list.
///
/// The parking lot behind the event core's `{owner, slot}` trampolines: a
/// callback or payload too large for a `sim::Task` is parked here and the
/// scheduled event carries only its owner and slot, so the event stays
/// Task-inline and, once the slab has grown to its working size, parking
/// allocates nothing. Slots are stable across growth; references are not.
template <typename T>
class Slab {
 public:
  /// Take a slot for the caller to fill in place through `operator[]`. The
  /// item is whatever the slot's last user left behind (moved-from or
  /// default-constructed), so the caller overwrites every field it reads.
  std::uint32_t claim() {
    if (free_.empty()) {
      items_.emplace_back();
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Store `v` and return its slot.
  std::uint32_t park(T v) {
    const std::uint32_t slot = claim();
    items_[slot] = std::move(v);
    return slot;
  }

  T& operator[](std::uint32_t slot) { return items_[slot]; }

  /// Move the item out of `slot` and recycle the slot.
  T take(std::uint32_t slot) {
    T v = std::move(items_[slot]);
    free_.push_back(slot);
    return v;
  }

  /// Recycle `slot`, leaving its item in place (moved-from or reusable).
  void release(std::uint32_t slot) { free_.push_back(slot); }

  /// Items currently parked.
  std::size_t live() const noexcept { return items_.size() - free_.size(); }

  /// Give the storage back once nothing is parked and the slab holds more
  /// than `keep` slots, so a one-off burst does not pin its footprint.
  void release_if_idle(std::size_t keep) {
    if (live() == 0 && items_.capacity() > keep) {
      std::vector<T>().swap(items_);
      std::vector<std::uint32_t>().swap(free_);
    }
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

}  // namespace lifl::sim
