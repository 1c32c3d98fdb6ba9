// Unit tests for the node update pool: the in-place queue of §4.2, its
// run-length consumer demand, and the lease/ack recovery protocol.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/dataplane/dataplane.hpp"
#include "src/dataplane/update_pool.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/shm/object_store.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"

namespace lifl {
namespace {

using shm::ObjectKey;

// ---------------------------------------------------------------- pool

fl::ModelUpdate update_of(std::uint32_t version) {
  fl::ModelUpdate u;
  u.model_version = version;
  u.logical_bytes = 128;
  u.sample_count = 1;
  return u;
}

TEST(UpdatePool, FifoOrder) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  pool.push(update_of(1));
  pool.push(update_of(2));
  fl::ModelUpdate u;
  ASSERT_TRUE(pool.try_pop(u));
  EXPECT_EQ(u.model_version, 1u);
  ASSERT_TRUE(pool.try_pop(u));
  EXPECT_EQ(u.model_version, 2u);
  EXPECT_FALSE(pool.try_pop(u));
}

TEST(UpdatePool, AsyncPopFiresOnPush) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::uint32_t got = 0;
  pool.pop_async([&](fl::ModelUpdate u) { got = u.model_version; });
  pool.push(update_of(9));
  sim.run();
  EXPECT_EQ(got, 9u);
}

TEST(UpdatePool, MultipleWaitersMultiplePushes) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::vector<std::uint32_t> got;
  for (int i = 0; i < 3; ++i) {
    pool.pop_async([&](fl::ModelUpdate u) { got.push_back(u.model_version); });
  }
  for (std::uint32_t v = 1; v <= 3; ++v) pool.push(update_of(v));
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(UpdatePool, ClearWaitersDropsPending) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  bool fired = false;
  pool.pop_async([&](fl::ModelUpdate) { fired = true; });
  pool.clear_waiters();
  pool.push(update_of(1));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(pool.depth(), 1u);
}

// ------------------------------------------------ run-length demand

/// A waiter that logs `name:version` for every update it is handed.
dp::UpdatePool::Waiter logger(std::vector<std::string>& log,
                              std::string name) {
  return [&log, name = std::make_shared<const std::string>(std::move(name))](
             fl::ModelUpdate u) {
    log.push_back(*name + ":" + std::to_string(u.model_version));
  };
}

TEST(UpdatePool, InterleavedRunsAreServedInFifoOrder) {
  // Runs A×3, B×2, A×1 drain exactly as six single-update pops would:
  // record by record, oldest first, one credit per push.
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::vector<std::string> log;
  pool.pop_async(logger(log, "A"), 3);
  pool.pop_async(logger(log, "B"), 2);
  pool.pop_async(logger(log, "A"), 1);
  EXPECT_EQ(pool.demand_records(), 3u);
  for (std::uint32_t v = 1; v <= 6; ++v) pool.push(update_of(v));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A:1", "A:2", "A:3", "B:4", "B:5",
                                           "A:6"}));
  EXPECT_EQ(pool.waiter_count(), 0u);
  EXPECT_EQ(pool.demand_records(), 0u);
  EXPECT_EQ(pool.depth(), 0u);
}

TEST(UpdatePool, RunLongerThanTheBufferServesWhatIsThereAndParksTheRest) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::vector<std::string> log;
  pool.push(update_of(1));
  pool.push(update_of(2));
  pool.pop_async(logger(log, "A"), 5);
  EXPECT_EQ(pool.depth(), 0u);         // both buffered updates served
  EXPECT_EQ(pool.waiter_count(), 3u);  // the rest parked
  EXPECT_EQ(pool.demand_records(), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A:1", "A:2"}));
  for (std::uint32_t v = 3; v <= 6; ++v) pool.push(update_of(v));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A:1", "A:2", "A:3", "A:4", "A:5"}));
  EXPECT_EQ(pool.depth(), 1u);  // the run is spent: update 6 buffers
  EXPECT_EQ(pool.demand_records(), 0u);
}

TEST(UpdatePool, WaiterCountIsTheOutstandingCredits) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::vector<std::string> log;
  pool.pop_async(logger(log, "A"), 4);
  pool.pop_async(logger(log, "B"), 3);
  pool.pop_async(logger(log, "C"), 0);  // no demand, no record
  EXPECT_EQ(pool.waiter_count(), 7u);
  EXPECT_EQ(pool.demand_records(), 2u);
  for (std::uint32_t v = 1; v <= 5; ++v) {
    pool.push(update_of(v));
    EXPECT_EQ(pool.waiter_count(), 7u - v);
  }
  // A's record is spent but held until its hand-offs have fired.
  EXPECT_EQ(pool.demand_records(), 2u);
  sim.run();
  EXPECT_EQ(pool.demand_records(), 1u);
  EXPECT_EQ(pool.waiter_count(), 2u);
  EXPECT_EQ(log.size(), 5u);
}

TEST(UpdatePool, ClearWaitersWithHandoffsInFlight) {
  // Withdrawing demand must not free a record its scheduled hand-offs
  // still point at: they fire after the clear and reach their consumer.
  // The heap-owning waiter lets ASan see a record freed too early.
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::vector<std::string> log;
  pool.pop_async(logger(log, "A"), 4);
  pool.pop_async(logger(log, "B"), 2);
  pool.push(update_of(1));
  pool.push(update_of(2));  // two A hand-offs scheduled, not yet run
  pool.clear_waiters();
  EXPECT_EQ(pool.waiter_count(), 0u);
  EXPECT_EQ(pool.demand_records(), 1u);  // B recycled, A held in flight
  pool.push(update_of(3));                // no demand left: buffers
  EXPECT_EQ(pool.depth(), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A:1", "A:2"}));
  EXPECT_EQ(pool.demand_records(), 0u);
}

TEST(UpdatePool, WaiterMayParkAndClearDemandWhileItRuns) {
  // A consumer's callback re-enters the pool: it parks enough new records
  // to grow the record storage under the running waiter, then withdraws
  // all demand, its own included. ASan flags a waiter invoked in storage
  // that moved under it.
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::vector<std::string> log;
  int calls = 0;
  pool.pop_async(
      [&](fl::ModelUpdate u) {
        ++calls;
        log.push_back("A:" + std::to_string(u.model_version));
        for (int i = 0; i < 100; ++i) pool.pop_async(logger(log, "X"), 1);
        if (calls == 2) pool.clear_waiters();
      },
      3);
  pool.push(update_of(1));
  pool.push(update_of(2));
  sim.run();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(log, (std::vector<std::string>{"A:1", "A:2"}));
  EXPECT_EQ(pool.waiter_count(), 0u);
  EXPECT_EQ(pool.demand_records(), 0u);
  pool.push(update_of(3));
  sim.run();
  EXPECT_EQ(pool.depth(), 1u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(UpdatePool, RetiredConsumerCreditStillBounces) {
  // A leaf that stops with its run unspent leaves the credits parked: each
  // takes one push and bounces the update straight back, counted as a
  // stale hand-off, until the run is used up and the update buffers. This
  // pins today's behaviour (and its cost): retiring the credits instead
  // would reorder same-instant events.
  sim::Simulator sim;
  sim::Cluster cluster(sim, 1);
  dp::DataPlane plane(cluster, dp::lifl_plane(), sim::Rng(3));
  dp::UpdatePool& pool = plane.env(0).pool;
  {
    fl::AggregatorRuntime::Config lc;
    lc.id = 7;
    lc.node = 0;
    lc.goal = 3;
    lc.pull_from_pool = true;
    fl::AggregatorRuntime leaf(plane, std::move(lc));
    leaf.start();
    EXPECT_EQ(pool.waiter_count(), 3u);
    EXPECT_EQ(pool.demand_records(), 1u);
    leaf.stop();
  }
  EXPECT_EQ(pool.waiter_count(), 3u);
  plane.seed_update(0, update_of(1));
  sim.run();
  EXPECT_EQ(pool.stale_handoffs(), 3u);
  EXPECT_EQ(pool.total_pushed(), 4u);
  EXPECT_EQ(pool.waiter_count(), 0u);
  EXPECT_EQ(pool.demand_records(), 0u);
  EXPECT_EQ(pool.depth(), 1u);
}

TEST(UpdatePool, StatsTrackDepthAndDelay) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  pool.push(update_of(1));
  pool.push(update_of(2));
  sim.run_until(3.0);
  fl::ModelUpdate u;
  pool.try_pop(u);
  pool.try_pop(u);
  EXPECT_EQ(pool.max_depth(), 2u);
  EXPECT_EQ(pool.total_pushed(), 2u);
  EXPECT_DOUBLE_EQ(pool.total_queueing_delay(), 6.0);
}

TEST(UpdatePool, LeaseReleasedWhenUpdateDropped) {
  // An update's shm lease must release its store reference when the last
  // copy of the update disappears (RAII recycle).
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  shm::ObjectStore store{sim::Rng(42)};
  {
    fl::ModelUpdate u = update_of(1);
    const ObjectKey key = store.put_logical(64);
    auto* sp = &store;
    u.lease = std::shared_ptr<const void>(
        new ObjectKey(key), [sp](const ObjectKey* k) {
          sp->release(*k);
          delete k;
        });
    pool.push(std::move(u));
    EXPECT_EQ(store.size(), 1u);
    fl::ModelUpdate out;
    pool.try_pop(out);
    // `out` still holds the lease here.
    EXPECT_EQ(store.size(), 1u);
  }
  // All copies gone => object released.
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace lifl
