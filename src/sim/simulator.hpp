#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace lifl::sim {

/// Discrete-event simulator: a virtual clock plus an event queue.
///
/// Events scheduled for the same instant run in scheduling order (FIFO
/// tie-breaking on a monotonically increasing sequence number), which makes
/// runs fully deterministic. Callbacks may schedule or cancel further events,
/// including at the current instant.
///
/// *Daemon* events model background periodic work (metrics polling,
/// samplers): they execute normally while regular events exist, but do not
/// by themselves keep `run()` alive — exactly like daemon threads.
///
/// The core is built for million-event campaigns:
///  - Construct once, run in place. Every event is one slot record
///    (callback, time, sequence number) taken off a free list; the schedule
///    call builds the caller's callable directly in that slot
///    (`TaskFn::emplace`), and dispatch invokes it where it sits. Slots live
///    in fixed chunks of `kChunkSlots` that never move, so a running
///    callback may schedule any number of events (growing the storage)
///    without its own capture being relocated. Scheduling performs no
///    per-event heap allocation and no map insert/erase.
///  - Timed events run through a two-stage calendar queue. Far events sit
///    in intrusive bucket chains (a `next` index threaded through the
///    slots, one O(1) splice per event); when a time window opens, its
///    chain is moved into a small binary heap ("near") that serves
///    dispatch. Until more than 2,048 timed events are pending at once the
///    calendar is never built and the near heap serves every timed event.
///    The heap orders (t, seq) as one 128-bit key — times are never below
///    +0, so their IEEE bits order like their values — and pops bottom-up:
///    the hole walks to a leaf with one branchless compare per level, then
///    the last entry sifts up.
///  - Zero-delay events (`schedule_now`, or any schedule that lands exactly
///    at `now()`) take a FIFO ring fast-path that bypasses the calendar
///    entirely; cross-queue ordering is preserved by comparing sequence
///    numbers whenever a timed event is also due at the current instant.
///  - `cancel` is O(1): it destroys the callback and tombstones the record;
///    the queue entry is discarded (and the slot recycled) when it
///    surfaces, never transiting the dispatch heap.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds).
  SimTime now() const noexcept { return now_; }

  /// Schedule callable `f` at absolute time `t` (clamped to `now()` if in
  /// the past). Throws `std::invalid_argument` if `t` is NaN.
  template <typename F>
  EventId schedule_at(SimTime t, F&& f) {
    return schedule_impl(t, std::forward<F>(f), /*daemon=*/false);
  }

  /// Schedule `f` after a relative delay `dt >= 0`.
  template <typename F>
  EventId schedule_after(SimTime dt, F&& f) {
    return schedule_impl(now_ + (dt > 0 ? dt : 0), std::forward<F>(f),
                         /*daemon=*/false);
  }

  /// Schedule `f` at the current instant, after all events already
  /// scheduled for this instant (same semantics as `schedule_after(0, f)`
  /// but guaranteed to take the heap-free fast path).
  template <typename F>
  EventId schedule_now(F&& f) {
    return schedule_impl(now_, std::forward<F>(f), /*daemon=*/false);
  }

  /// Schedule a daemon event: runs like a normal event but does not keep
  /// `run()` going once all regular events have drained. Throws
  /// `std::invalid_argument` if `t` is NaN.
  template <typename F>
  EventId schedule_daemon_at(SimTime t, F&& f) {
    return schedule_impl(t, std::forward<F>(f), /*daemon=*/true);
  }

  /// Daemon variant of `schedule_after`.
  template <typename F>
  EventId schedule_daemon_after(SimTime dt, F&& f) {
    return schedule_impl(now_ + (dt > 0 ? dt : 0), std::forward<F>(f),
                         /*daemon=*/true);
  }

  /// Daemon variant of `schedule_now`.
  template <typename F>
  EventId schedule_daemon_now(F&& f) {
    return schedule_impl(now_, std::forward<F>(f), /*daemon=*/true);
  }

  /// Cancel a pending event. Returns false if it already ran or was cancelled.
  bool cancel(EventId id);

  /// Run a single event (daemon or not). Returns false if the queue is empty.
  bool step();

  /// Run until no regular (non-daemon) events remain; returns the number of
  /// events dispatched (daemons included).
  std::size_t run();

  /// Run events with time <= `t` (regular and daemon), then set the clock
  /// to `t`. Returns the number of events dispatched.
  std::size_t run_until(SimTime t);

  /// Run events with time strictly < `end` (regular and daemon) and stop.
  /// Unlike `run_until` the clock is left at the last dispatched event, not
  /// advanced to `end`. This is the per-window body of the sharded
  /// conservative-time-window protocol: a shard may safely execute
  /// everything below the window horizon because no cross-shard event can
  /// land earlier than the horizon.
  std::size_t run_window(SimTime end);

  /// Timestamp of the earliest pending event (daemons included), or
  /// +infinity when the queue is empty. May rotate calendar windows to find
  /// the front, but never dispatches and never advances the clock.
  SimTime next_event_time();

  /// Restore a checkpointed clock onto an idle simulator: sets `now()` and
  /// the dispatched total so a rebuilt model resumes at its snapshot time.
  /// Only legal while no events are pending (a fresh core, or one that has
  /// fully drained) and the clock does not move backwards; the calendar
  /// re-anchors itself on the restored time at its next build. The sequence
  /// counter is deliberately left alone: FIFO tie-breaking depends only on
  /// the *relative* order of schedule calls, which a deterministic replay
  /// reproduces.
  void restore_clock(SimTime t, std::uint64_t dispatched);

  /// Number of pending (non-cancelled) events, daemons included.
  std::size_t pending() const noexcept { return pending_; }

  /// Number of pending regular (non-daemon) events.
  std::size_t pending_regular() const noexcept { return regular_pending_; }

  /// Total events dispatched so far.
  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  /// One event record. A slot is owned by exactly one queue entry (bucket
  /// chain link, near-heap handle, or ring handle) from schedule until that
  /// entry surfaces, so cancellation only tombstones it here and the
  /// surfacing code recycles it; a dispatched slot is recycled once its
  /// callback has returned. Exactly one cache line: the chain link is
  /// written while the line is already open for the callback store, so
  /// scheduling into a bucket costs no extra fill.
  struct alignas(64) Slot {
    Task cb;
    SimTime t = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;  ///< intrusive bucket-chain link
    std::uint32_t gen = 0;      ///< stale-EventId guard; bumped on dispatch
                                ///< and on tombstone recycle
    bool daemon = false;
    bool timed = false;      ///< calendar/near (vs ring)
    bool tombstone = false;  ///< cancelled; recycle on surface
  };
  /// Near-heap handle: plain data, cheap to sift.
  struct TimedEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  using Key = unsigned __int128;
  /// (t, seq) as one integer. Heap times are always > +0 (a timed event is
  /// strictly later than a clock that starts at +0 and never runs
  /// backwards) and never NaN, so their IEEE bits order like their values.
  static Key key(const TimedEntry& e) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, &e.t, sizeof bits);
    return (static_cast<Key>(bits) << 64) | e.seq;
  }

  Slot& slot_at(std::uint32_t i) noexcept {
    return chunks_[i >> kChunkShift][i & (kChunkSlots - 1)];
  }
  const Slot& slot_at(std::uint32_t i) const noexcept {
    return chunks_[i >> kChunkShift][i & (kChunkSlots - 1)];
  }

  template <typename F>
  EventId schedule_impl(SimTime t, F&& f, bool daemon) {
    if (!(t >= now_)) t = clamp_time(t);
    if (free_.empty()) grow();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    try {
      slot_at(slot).cb.emplace(std::forward<F>(f));
    } catch (...) {
      free_.push_back(slot);  // within capacity: the pop above made room
      throw;
    }
    return enqueue(slot, t, daemon);
  }
  /// `now()` for a past `t`; throws `std::invalid_argument` for NaN.
  SimTime clamp_time(SimTime t) const;
  /// Add a chunk of slots to the free list.
  void grow();
  /// Queue a slot whose callback is already built.
  EventId enqueue(std::uint32_t slot, SimTime t, bool daemon);
  /// Dispatch the earliest event. `bounded` restricts dispatch to events at
  /// or below `limit`; `strict` tightens that to strictly below.
  bool dispatch_next(SimTime limit, bool bounded, bool strict = false);

  /// Recycle a tombstoned slot (its callback is already destroyed).
  void free_slot(std::uint32_t slot) {
    Slot& s = slot_at(slot);
    ++s.gen;
    s.tombstone = false;
    free_.push_back(slot);
  }

  void near_push(TimedEntry e);
  void near_pop();

  // Calendar stage.
  std::size_t bucket_of(SimTime t) const noexcept {
    return static_cast<std::size_t>(t / bucket_width_) & (buckets_.size() - 1);
  }
  void calendar_insert(std::uint32_t slot);
  /// Move the window forward until the near heap holds a live event (or no
  /// timed events remain). Never touches `now_`.
  void open_windows();
  /// Resize/re-anchor the calendar for the current live population/spread.
  void rebuild_calendar();

  struct RingEntry {
    std::uint64_t seq;
    std::uint32_t slot;
  };
  void ring_push(RingEntry e);
  void ring_pop() noexcept {
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_size_;
  }
  /// Recycle cancelled entries until both queue fronts are live.
  void skim_tombstones();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t pending_ = 0;
  std::size_t regular_pending_ = 0;
  std::size_t timed_live_ = 0;  ///< live events in near heap + calendar

  // Slot storage: fixed chunks, never moved once allocated.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;

  // Near stage: binary min-heap on (t, seq) for events with t < win_end_.
  // May hold tombstoned handles; `skim_tombstones` recycles them at the top.
  std::vector<TimedEntry> near_;
  // Calendar stage: chain heads, one per bucket of width bucket_width_; an
  // event at t chains into bucket (t / width) mod nbuckets, so far-future
  // "years" share buckets with the current rotation and are filtered out by
  // time when a window opens. Empty until the first calendar build.
  std::vector<std::uint32_t> buckets_;
  double bucket_width_ = 1.0;
  std::uint64_t cur_window_ = 0;  ///< absolute index of the open window
  SimTime win_end_ = 0.0;         ///< exclusive end of the open window

  // Power-of-two circular buffer of same-instant events.
  std::vector<RingEntry> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
};

}  // namespace lifl::sim
