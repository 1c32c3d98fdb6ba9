// Unit tests for the discrete-event simulator core.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "src/sim/simulator.hpp"

namespace lifl::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(10.0, [&] {
    sim.schedule_at(3.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(-7.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelReturnsFalseTwice) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterRunReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelledEventDoesNotBlockOthers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId id = sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, StepRunsExactlyOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  sim.schedule_at(3.0, [&] { ++count; });
  EXPECT_EQ(sim.run_until(2.0), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockWithNoEvents) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_after(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, DispatchedCountsEvents) {
  Simulator sim;
  for (int i = 0; i < 17; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.dispatched(), 17u);
}

TEST(Simulator, PendingExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ScheduleNowRunsAtCurrentInstant) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    order.push_back(1);
    sim.schedule_now([&] { order.push_back(3); });
    order.push_back(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, ScheduleNowInterleavesFifoWithTimedEvents) {
  // A zero-delay event scheduled *during* an event at time T must not
  // overtake an event already scheduled for T: FIFO is by schedule order,
  // across the fast-path ring and the timed queue.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    order.push_back(1);
    sim.schedule_now([&] { order.push_back(3); });  // ring, seq > B's
  });
  sim.schedule_at(5.0, [&] { order.push_back(2); });  // timed, earlier seq
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ZeroDelayChainsStayFifoUnderLoad) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_after(0.0, [&sim, &order, i] {
      order.push_back(i);
      if (i % 3 == 0) {
        sim.schedule_now([&order, i] { order.push_back(1000 + i); });
      }
    });
  }
  sim.run();
  // The first 100 dispatches are the original events in schedule order.
  ASSERT_GE(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CancelOfDispatchedRingEventReturnsFalse) {
  Simulator sim;
  EventId id = 0;
  sim.schedule_at(1.0, [&] { id = sim.schedule_now([] {}); });
  sim.run();
  EXPECT_FALSE(sim.cancel(id));  // already ran via the fast path
}

TEST(Simulator, CancelOfStaleIdAfterSlotReuseReturnsFalse) {
  // Dispatching recycles the event record; an old EventId whose slot was
  // reused by a newer event must not cancel the newer one.
  Simulator sim;
  const EventId old_id = sim.schedule_at(1.0, [] {});
  sim.run();  // old event runs; its slot returns to the free list
  bool ran = false;
  sim.schedule_at(2.0, [&] { ran = true; });  // likely reuses the slot
  EXPECT_FALSE(sim.cancel(old_id));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelledTombstoneDoesNotResurrect) {
  // Cancel marks the record; the stale queue handle surfacing later must
  // be discarded silently, and double-cancel stays false.
  Simulator sim;
  std::vector<int> order;
  const EventId id = sim.schedule_at(1.0, [&] { order.push_back(-1); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, DaemonsOnFastPathDoNotKeepRunAlive) {
  Simulator sim;
  int daemon_runs = 0;
  sim.schedule_daemon_after(0.0, [&] { ++daemon_runs; });  // ring daemon
  EXPECT_EQ(sim.run(), 0u);  // no regular events: run() must not start
  EXPECT_EQ(daemon_runs, 0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.pending_regular(), 0u);
}

TEST(Simulator, DaemonRingEventsRunWhileRegularWorkRemains) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    // Daemon wake-up on the ring, then more regular work at this instant.
    sim.schedule_daemon_after(0.0, [&] { order.push_back(10); });
    sim.schedule_now([&] { order.push_back(2); });
    order.push_back(1);
  });
  sim.run();
  // The daemon ran (regular work existed behind it), in FIFO position.
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2}));
}

TEST(Simulator, RunStopsWithDaemonsStrandedOnRing) {
  // run() must halt as soon as the last regular event retires even if
  // daemons sit ready on the fast-path ring.
  Simulator sim;
  int daemon_runs = 0;
  sim.schedule_at(1.0, [&] {
    sim.schedule_daemon_now([&]() mutable { ++daemon_runs; });
  });
  sim.run();
  EXPECT_EQ(daemon_runs, 0);
  EXPECT_EQ(sim.pending(), 1u);
  // A later regular event lets the stranded daemon drain first (FIFO).
  bool regular_ran = false;
  sim.schedule_at(2.0, [&] { regular_ran = true; });
  sim.run();
  EXPECT_TRUE(regular_ran);
  EXPECT_EQ(daemon_runs, 1);
}

TEST(Simulator, SparseScheduleCrossesLongGaps) {
  // Exercises the calendar's empty-window jump: events separated by huge
  // gaps relative to the bucket width chosen for the dense prefix.
  Simulator sim;
  std::vector<double> fired;
  for (int i = 0; i < 3000; ++i) {
    sim.schedule_at(i * 0.001, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.schedule_at(1e6, [&fired, &sim] { fired.push_back(sim.now()); });
  sim.schedule_at(2e9, [&fired, &sim] { fired.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 3002u);
  EXPECT_DOUBLE_EQ(fired[3000], 1e6);
  EXPECT_DOUBLE_EQ(fired[3001], 2e9);
  EXPECT_DOUBLE_EQ(sim.now(), 2e9);
}

TEST(Simulator, RunUntilBoundaryWithFastPathEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_now([&] { order.push_back(2); });
  });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run_until(2.0), 2u);  // the ring event at t=1 counts
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Property sweep: dispatch order equals sorted (time, seq) order for
// randomized schedules of different sizes.
class SimulatorOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorOrderProperty, DispatchOrderIsStableSort) {
  const int n = GetParam();
  Simulator sim;
  std::vector<std::pair<double, int>> fired;
  // Deterministic pseudo-random times with many collisions.
  std::uint64_t x = 0x1234 + n;
  for (int i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double t = static_cast<double>((x >> 33) % 16);
    sim.schedule_at(t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    // Non-decreasing time; FIFO within a timestamp (seq increases).
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimulatorOrderProperty,
                         ::testing::Values(1, 2, 10, 100, 1000, 5000));

// Calendar-scale property: 50k events over a continuous time range with a
// 25% cancellation mix — dispatch order must still be a stable sort and no
// cancelled event may fire.
TEST(Simulator, LargeChurnDispatchOrderIsStableSort) {
  Simulator sim;
  std::vector<std::pair<double, int>> fired;
  std::vector<EventId> to_cancel;
  std::uint64_t x = 0xC0FFEE;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 11;
  };
  const int n = 50'000;
  std::vector<bool> cancelled(n, false);
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>(next() % 1'000'000) / 1000.0;
    const EventId id = sim.schedule_at(t, [&fired, t, i] {
      fired.emplace_back(t, i);
    });
    if (next() % 4 == 0) {
      to_cancel.push_back(id);
      cancelled[i] = true;
    }
  }
  for (const EventId id : to_cancel) EXPECT_TRUE(sim.cancel(id));
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n) - to_cancel.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_FALSE(cancelled[static_cast<std::size_t>(fired[i].second)]);
    if (i == 0) continue;
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);
    }
  }
}

TEST(Simulator, NaNEventTimeIsRejected) {
  // The dispatch heap compares times by their IEEE bits; a NaN would sort
  // after +inf and silently break the order, so it is refused up front.
  Simulator sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sim.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_daemon_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.restore_clock(nan, 0), std::invalid_argument);
  EXPECT_EQ(sim.pending(), 0u);
  // Nothing leaked: the core still schedules and orders normally.
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, InfiniteTimeSortsLast) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(std::numeric_limits<double>::infinity(),
                  [&] { order.push_back(2); });
  sim.schedule_at(1e300, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, CallbackGrowsStorageAcrossChunkBoundaryUnderItself) {
  // A running callback schedules well past one 1,024-slot chunk, then
  // reads its own capture. The capture (24 bytes) sits inline in the slot
  // and slots run in place, so storage that moved would leave it dangling
  // (a use-after-free under ASan).
  Simulator sim;
  std::vector<int> fired;
  constexpr int kChildren = 3000;
  sim.schedule_at(1.0, [&sim, &fired, tag = 7] {
    for (int i = 0; i < kChildren; ++i) {
      sim.schedule_at(100.0 + i % 5, [&fired, i] { fired.push_back(i); });
    }
    for (int i = 0; i < kChildren; ++i) {
      sim.schedule_now([&fired] { fired.push_back(-1); });
    }
    fired.push_back(tag);
  });
  sim.run();
  ASSERT_EQ(fired.size(), 2u * kChildren + 1);
  EXPECT_EQ(fired[0], 7);
  for (int i = 1; i <= kChildren; ++i) EXPECT_EQ(fired[i], -1);
  // Timed children: by time, FIFO within each of the five instants.
  std::vector<int> expect;
  for (int r = 0; r < 5; ++r) {
    for (int i = r; i < kChildren; i += 5) expect.push_back(i);
  }
  EXPECT_EQ(std::vector<int>(fired.begin() + kChildren + 1, fired.end()),
            expect);
}

TEST(Simulator, RunningEventCannotCancelItself) {
  Simulator sim;
  EventId timed = 0;
  EventId ring = 0;
  int ran = 0;
  timed = sim.schedule_at(1.0, [&] {
    EXPECT_FALSE(sim.cancel(timed));
    ++ran;
    ring = sim.schedule_now([&] {
      EXPECT_FALSE(sim.cancel(ring));
      ++ran;
    });
  });
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CaptureIsReleasedRightAfterDispatchAndAtCancel) {
  Simulator sim;
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  const std::weak_ptr<int> wa = a;
  const std::weak_ptr<int> wb = b;
  bool alive_while_running = false;
  sim.schedule_at(1.0, [a = std::move(a), &wa, &alive_while_running] {
    alive_while_running = !wa.expired();
  });
  const EventId id = sim.schedule_at(2.0, [b = std::move(b)] {});
  sim.schedule_at(3.0, [] {});
  EXPECT_FALSE(wa.expired());
  EXPECT_FALSE(wb.expired());
  ASSERT_TRUE(sim.step());
  EXPECT_TRUE(alive_while_running);
  EXPECT_TRUE(wa.expired());  // released as soon as its event returned
  EXPECT_FALSE(wb.expired());
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_TRUE(wb.expired());  // released by cancel, not when it surfaces
  sim.run();
}

TEST(Simulator, ThrowingCallbackReleasesItsSlot) {
  Simulator sim;
  auto p = std::make_shared<int>(1);
  const std::weak_ptr<int> w = p;
  sim.schedule_at(1.0, [p = std::move(p)] { throw std::runtime_error("x"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_TRUE(w.expired());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.dispatched(), 1u);
  bool ran = false;
  sim.schedule_after(1.0, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

// Differential test: the core against a reference ordered set on
// (t, seq). Events dispatch, schedule (timed, same-instant, past times
// clamped to now, equal timestamps) and cancel at random from inside their
// callbacks; every dispatch must be the reference's minimum and every
// cancel must agree with the reference's pending set. The initial batch is
// sized below the calendar's 2,048-event build threshold (heap only) and
// above it (calendar built).
class SimulatorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorDifferential, MatchesReferenceStableSort) {
  struct Model {
    Simulator sim;
    std::uint64_t x = 0;
    std::uint64_t seq = 0;
    std::set<std::tuple<double, std::uint64_t, int>> pending;
    std::vector<std::tuple<double, std::uint64_t, EventId>> events;
    std::uint64_t dispatched = 0;
    int budget = 0;

    std::uint64_t next() {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return x >> 17;
    }
    void schedule(double t, bool now_call) {
      const int id = static_cast<int>(events.size());
      const double at = t < sim.now() ? sim.now() : t;
      const EventId eid = now_call ? sim.schedule_now(Fire{this, id})
                                   : sim.schedule_at(t, Fire{this, id});
      events.emplace_back(now_call ? sim.now() : at, seq, eid);
      pending.emplace(std::get<0>(events.back()), seq++, id);
    }
    void cancel(int id) {
      const auto& [t, s, eid] = events[static_cast<std::size_t>(id)];
      const bool live = pending.erase({t, s, id}) == 1;
      EXPECT_EQ(sim.cancel(eid), live) << "event " << id;
    }
    struct Fire {
      Model* m;
      int id;
      void operator()() const { m->fire(id); }
    };
    void fire(int id) {
      ASSERT_FALSE(pending.empty());
      const auto front = *pending.begin();
      ASSERT_EQ(std::get<2>(front), id) << "dispatch " << dispatched;
      EXPECT_EQ(sim.now(), std::get<0>(front));
      pending.erase(pending.begin());
      ++dispatched;
      if (budget <= 0) return;
      const int actions = static_cast<int>(next() % 4);
      for (int a = 0; a < actions && budget > 0; ++a, --budget) {
        switch (next() % 5) {
          case 0:
            schedule(0.0, /*now_call=*/true);
            break;
          case 1:  // equal timestamps: a coarse grid ahead of now
            schedule(sim.now() + static_cast<double>(next() % 8) * 0.5,
                     false);
            break;
          case 2:  // in the past: clamps to now
            schedule(sim.now() - 1.0, false);
            break;
          case 3:
            schedule(sim.now() + static_cast<double>(next() % 1000) * 1e-3,
                     false);
            break;
          default:
            cancel(static_cast<int>(next() % events.size()));
            break;
        }
      }
    }
  };

  const int initial = GetParam();
  auto m = std::make_unique<Model>();
  m->x = 0x5EED0000u + static_cast<std::uint64_t>(initial);
  m->budget = 4 * initial;
  for (int i = 0; i < initial; ++i) {
    m->schedule(static_cast<double>(m->next() % 256) * 0.25, false);
  }
  for (int i = 0; i < initial / 8; ++i) {
    m->cancel(static_cast<int>(m->next() % m->events.size()));
  }
  m->sim.run();
  EXPECT_TRUE(m->pending.empty());
  EXPECT_EQ(m->sim.pending(), 0u);
  EXPECT_EQ(m->sim.dispatched(), m->dispatched);
  EXPECT_GT(m->dispatched, static_cast<std::uint64_t>(initial) / 2);
}

INSTANTIATE_TEST_SUITE_P(HeapOnlyAndCalendar, SimulatorDifferential,
                         ::testing::Values(1500, 6000));

}  // namespace
}  // namespace lifl::sim
