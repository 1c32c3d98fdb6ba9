#include "src/sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace lifl::sim {

namespace {
/// Near-heap size that triggers the first calendar build.
constexpr std::size_t kCalendarBuildThreshold = 2048;
/// Rebuild (grow the bucket array) past this average bucket occupancy.
constexpr std::size_t kMaxAvgOccupancy = 8;
/// Fruitless window advances before jumping straight to the earliest event.
constexpr std::size_t kJumpAfterEmptyWindows = 64;
}  // namespace

SimTime Simulator::clamp_time(SimTime t) const {
  if (std::isnan(t)) {
    throw std::invalid_argument("Simulator: event time is NaN");
  }
  return now_;
}

void Simulator::grow() {
  const auto base = static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  // Capacity for every slot, so recycling a slot never reallocates.
  free_.reserve(static_cast<std::size_t>(base) + kChunkSlots);
  // Lowest index on top, so a fresh chunk fills front to back.
  for (std::uint32_t i = kChunkSlots; i > 0; --i) {
    free_.push_back(base + i - 1);
  }
}

void Simulator::near_push(TimedEntry e) {
  near_.push_back(e);
  TimedEntry* h = near_.data();
  const Key k = key(e);
  std::size_t hole = near_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!(k < key(h[parent]))) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = e;
}

void Simulator::near_pop() {
  // Bottom-up: walk the root's hole down to a leaf along the smaller child
  // (one branchless select per level), then sift the last entry up from
  // there. The last entry almost always belongs near the bottom, so this
  // saves the per-level "stop here?" compare of the textbook sift-down.
  const TimedEntry last = near_.back();
  near_.pop_back();
  const std::size_t n = near_.size();
  if (n == 0) return;
  TimedEntry* h = near_.data();
  std::size_t hole = 0;
  std::size_t child = 1;
  while (child + 1 < n) {
    child += static_cast<std::size_t>(key(h[child + 1]) < key(h[child]));
    h[hole] = h[child];
    hole = child;
    child = 2 * hole + 1;
  }
  if (child < n) {
    h[hole] = h[child];
    hole = child;
  }
  const Key k = key(last);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!(k < key(h[parent]))) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = last;
}

void Simulator::calendar_insert(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  if (buckets_.empty() || s.t < win_end_) {
    near_push(TimedEntry{s.t, s.seq, slot});
    if (buckets_.empty() && near_.size() > kCalendarBuildThreshold) {
      rebuild_calendar();
    }
    return;
  }
  // O(1) intrusive splice; the slot's line is already open from the
  // callback store, so only the 4-byte head write touches new memory.
  std::uint32_t& head = buckets_[bucket_of(s.t)];
  s.next = head;
  head = slot;
  if (timed_live_ > buckets_.size() * kMaxAvgOccupancy) rebuild_calendar();
}

void Simulator::rebuild_calendar() {
  // Gather live timed slots; recycle tombstones met along the way.
  std::vector<std::uint32_t> live;
  live.reserve(timed_live_);
  for (const TimedEntry& e : near_) {
    if (slot_at(e.slot).tombstone) {
      free_slot(e.slot);
    } else {
      live.push_back(e.slot);
    }
  }
  near_.clear();
  for (std::uint32_t head : buckets_) {
    while (head != kNil) {
      const std::uint32_t next = slot_at(head).next;
      if (next != kNil) __builtin_prefetch(&slot_at(next));
      if (slot_at(head).tombstone) {
        free_slot(head);
      } else {
        live.push_back(head);
      }
      head = next;
    }
  }

  std::size_t nb = 16;
  while (nb * 2 < live.size()) nb <<= 1;
  buckets_.assign(nb, kNil);

  SimTime hi = now_;
  for (const std::uint32_t s : live) hi = std::max(hi, slot_at(s).t);
  const SimTime span = hi - now_;
  bucket_width_ = span > 0 ? span / static_cast<double>(nb) : 1.0;
  // Numeric floor so the absolute window index stays well inside 64 bits.
  bucket_width_ = std::max(bucket_width_, std::max(hi, 1.0) * 1e-12);

  cur_window_ = static_cast<std::uint64_t>(now_ / bucket_width_);
  win_end_ = static_cast<SimTime>(cur_window_ + 1) * bucket_width_;
  for (const std::uint32_t s : live) {
    Slot& rec = slot_at(s);
    if (rec.t < win_end_) {
      near_push(TimedEntry{rec.t, rec.seq, s});
    } else {
      std::uint32_t& head = buckets_[bucket_of(rec.t)];
      rec.next = head;
      head = s;
    }
  }
}

void Simulator::open_windows() {
  std::size_t fruitless = 0;
  while (near_.empty() && timed_live_ > 0) {
    ++cur_window_;
    win_end_ = static_cast<SimTime>(cur_window_ + 1) * bucket_width_;
    std::uint32_t& bucket = buckets_[cur_window_ & (buckets_.size() - 1)];
    std::uint32_t chain = bucket;
    std::uint32_t kept = kNil;
    while (chain != kNil) {
      Slot& rec = slot_at(chain);
      const std::uint32_t next = rec.next;
      // The chain wanders the slots; start the next line's fetch while this
      // entry is classified (pointer-chase latency dominates the walk).
      if (next != kNil) __builtin_prefetch(&slot_at(next));
      if (rec.tombstone) {
        free_slot(chain);
      } else if (rec.t < win_end_) {
        near_push(TimedEntry{rec.t, rec.seq, chain});
      } else {
        rec.next = kept;  // a later "year" of this bucket
        kept = chain;
      }
      chain = next;
    }
    bucket = kept;
    if (!near_.empty()) return;
    if (++fruitless >= kJumpAfterEmptyWindows) {
      // Sparse region: jump the window straight to the earliest live event
      // instead of grinding through empty buckets one by one.
      SimTime min_t = std::numeric_limits<SimTime>::infinity();
      for (std::uint32_t head : buckets_) {
        for (std::uint32_t s = head; s != kNil; s = slot_at(s).next) {
          if (!slot_at(s).tombstone) min_t = std::min(min_t, slot_at(s).t);
        }
      }
      if (min_t == std::numeric_limits<SimTime>::infinity()) return;
      // Every chained event has t >= win_end_, so this lands ahead of the
      // current window and the ++ above reopens exactly its window.
      cur_window_ = static_cast<std::uint64_t>(min_t / bucket_width_) - 1;
      fruitless = 0;
    }
  }
}

void Simulator::ring_push(RingEntry e) {
  if (ring_size_ == ring_.size()) {
    // Grow to the next power of two, unwrapping head..tail.
    std::vector<RingEntry> bigger(ring_.empty() ? 16 : ring_.size() * 2);
    for (std::size_t i = 0; i < ring_size_; ++i) {
      bigger[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(bigger);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] = e;
  ++ring_size_;
}

EventId Simulator::enqueue(std::uint32_t slot, SimTime t, bool daemon) {
  Slot& s = slot_at(slot);
  s.t = t;
  s.seq = next_seq_++;
  s.daemon = daemon;
  s.next = kNil;
  if (t == now_) {
    s.timed = false;
    ring_push(RingEntry{s.seq, slot});
  } else {
    s.timed = true;
    ++timed_live_;
    calendar_insert(slot);
  }
  ++pending_;
  if (!daemon) ++regular_pending_;
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= chunks_.size() * kChunkSlots) return false;
  Slot& s = slot_at(slot);
  if (s.gen != gen || s.tombstone) return false;
  // Destroy the callback now (it may pin resources); the queue handle is
  // recycled when it surfaces, never transiting the dispatch heap.
  s.cb = nullptr;
  s.tombstone = true;
  if (!s.daemon) --regular_pending_;
  if (s.timed) --timed_live_;
  --pending_;
  return true;
}

void Simulator::skim_tombstones() {
  while (ring_size_ > 0) {
    const std::uint32_t slot = ring_[ring_head_].slot;
    if (!slot_at(slot).tombstone) break;
    free_slot(slot);
    ring_pop();
  }
  for (;;) {
    while (!near_.empty() && slot_at(near_[0].slot).tombstone) {
      free_slot(near_[0].slot);
      near_pop();
    }
    if (!near_.empty() || timed_live_ == 0 || buckets_.empty()) break;
    open_windows();
    if (near_.empty()) break;  // nothing live anywhere in the calendar
  }
}

bool Simulator::dispatch_next(SimTime limit, bool bounded, bool strict) {
  skim_tombstones();
  const bool ring_ok = ring_size_ > 0;
  const bool near_ok = !near_.empty();
  if (!ring_ok && !near_ok) return false;

  // Ring entries are due at `now_` (time cannot advance while any are
  // pending); the near front is due at `now_` or later. When both are due
  // at the same instant, the smaller sequence number was scheduled first.
  bool use_ring;
  if (ring_ok && near_ok) {
    use_ring = near_[0].t > now_ || ring_[ring_head_].seq < near_[0].seq;
  } else {
    use_ring = ring_ok;
  }

  std::uint32_t slot;
  if (use_ring) {
    if (bounded && (now_ > limit || (strict && now_ >= limit))) return false;
    slot = ring_[ring_head_].slot;
    ring_pop();
  } else {
    if (bounded &&
        (near_[0].t > limit || (strict && near_[0].t >= limit))) {
      return false;
    }
    slot = near_[0].slot;
    now_ = near_[0].t;
    near_pop();
    --timed_live_;
  }

  // Run the callback where it sits: chunks never move, so events it
  // schedules cannot relocate it. The generation moves on first, so the
  // running event's own id is already stale (it cannot cancel itself), and
  // the slot joins the free list only once the callback has returned.
  Slot& s = slot_at(slot);
  ++s.gen;
  if (!s.daemon) --regular_pending_;
  --pending_;
  ++dispatched_;
  try {
    s.cb();
  } catch (...) {
    s.cb = nullptr;
    free_.push_back(slot);
    throw;
  }
  s.cb = nullptr;
  free_.push_back(slot);
  return true;
}

bool Simulator::step() { return dispatch_next(0, /*bounded=*/false); }

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (regular_pending_ > 0 && dispatch_next(0, /*bounded=*/false)) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime t) {
  std::size_t n = 0;
  while (dispatch_next(t, /*bounded=*/true)) ++n;
  if (t > now_) now_ = t;
  return n;
}

std::size_t Simulator::run_window(SimTime end) {
  std::size_t n = 0;
  while (dispatch_next(end, /*bounded=*/true, /*strict=*/true)) ++n;
  return n;
}

void Simulator::restore_clock(SimTime t, std::uint64_t dispatched) {
  if (pending_ != 0) {
    throw std::logic_error(
        "Simulator::restore_clock: events are pending; the clock can only "
        "be restored onto an idle core");
  }
  if (std::isnan(t)) {
    throw std::invalid_argument("Simulator::restore_clock: time is NaN");
  }
  if (t < now_) {
    throw std::logic_error(
        "Simulator::restore_clock: the clock cannot move backwards");
  }
  now_ = t;
  dispatched_ = dispatched;
}

SimTime Simulator::next_event_time() {
  skim_tombstones();
  if (ring_size_ > 0) return now_;  // ring entries are always due at now()
  if (!near_.empty()) return near_[0].t;
  return std::numeric_limits<SimTime>::infinity();
}

}  // namespace lifl::sim
