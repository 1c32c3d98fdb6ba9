// Steady-state allocation budget of the upload path: once the data plane's
// slabs, queues and pools have warmed up, a client upload (gateway ingest,
// shm lease, node-pool hand-off, leaf fold), a resumable-upload chunk, and a
// brokered send or consume make (almost) no heap allocations; a whole
// resumable session with disconnects stays within a looser budget; and a
// round start that parks every leaf's whole batch of pulls at once costs at
// most one allocation in all and one pool demand record per leaf.
//
// The counting `operator new` below replaces the global one for this test
// binary only; the library itself never replaces the allocator.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/dataplane/dataplane.hpp"
#include "src/dataplane/resumable_upload.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/sim/node.hpp"
#include "src/sim/simulator.hpp"
#include "src/systems/campaign_state.hpp"
#include "src/workload/lifecycle.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lifl {
namespace {

// Allocations allowed per item once the structures have warmed up.
constexpr double kBudget = 0.1;
constexpr std::uint64_t kWarmup = 4'000;
constexpr std::uint64_t kMeasured = 20'000;
constexpr double kGapSecs = 2e-3;
constexpr std::size_t kBytes = 100'000;

fl::ModelUpdate update(std::uint64_t producer) {
  fl::ModelUpdate u;
  u.producer = producer;
  u.sample_count = 600;
  u.logical_bytes = kBytes;
  return u;
}

/// A self-rescheduling arrival stream (one pending arrival event at a
/// time, as in a campaign) plus the measurement windows around it.
struct Stream {
  sim::Simulator sim;
  sim::Cluster cluster;
  dp::DataPlane plane;
  std::uint64_t launched = 0;
  std::uint64_t total = 0;
  /// Items acked or delivered; the leaf's folds instead when it is set.
  std::uint64_t done = 0;
  const fl::AggregatorRuntime* leaf = nullptr;
  void (*launch)(Stream&, std::uint64_t i) = nullptr;
  void* ctx = nullptr;  ///< per-test state for `launch`

  std::uint64_t completed() const {
    return leaf != nullptr ? leaf->aggregated() : done;
  }

  Stream(std::size_t nodes, dp::DataPlaneConfig cfg)
      : cluster(sim, nodes), plane(cluster, cfg, sim::Rng(7)) {}

  struct Arrive {
    Stream* s;
    void operator()() const {
      s->launch(*s, s->launched);
      if (++s->launched < s->total) s->sim.schedule_after(kGapSecs, Arrive{s});
    }
  };

  /// Run `kWarmup` items, then `kMeasured` more while counting
  /// allocations; returns allocations per measured item. Drains the rest.
  double allocs_per_item() {
    total = kWarmup + kMeasured;
    sim.schedule_after(kGapSecs, Arrive{this});
    sim.run_until(kGapSecs * static_cast<double>(kWarmup) + 0.5 * kGapSecs);
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const std::uint64_t c0 = completed();
    sim.run_until(kGapSecs * static_cast<double>(total) + 0.5 * kGapSecs);
    const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    // The measured window saw the stream's real work.
    EXPECT_GE(completed() - c0, kMeasured * 9 / 10);
    sim.run();
    EXPECT_EQ(completed(), total);
    return static_cast<double>(a1 - a0) / static_cast<double>(kMeasured);
  }
};

/// An eager leaf pulling every upload off node 0's pool.
fl::AggregatorRuntime::Config pulling_leaf() {
  fl::AggregatorRuntime::Config lc;
  lc.id = 1;
  lc.node = 0;
  lc.role = fl::AggRole::kLeaf;
  lc.timing = fl::AggTiming::kEager;
  lc.goal = static_cast<std::uint32_t>(kWarmup + kMeasured);
  lc.result_bytes = kBytes;
  lc.pull_from_pool = true;
  return lc;
}

TEST(UploadAllocBudget, ClientUploadIntoPullingLeaf) {
  Stream s(1, dp::lifl_plane());
  s.launch = [](Stream& st, std::uint64_t i) {
    st.plane.client_upload(0, update(i), 2e6);
  };
  fl::AggregatorRuntime leaf(s.plane, pulling_leaf());
  s.leaf = &leaf;
  leaf.start();
  EXPECT_LE(s.allocs_per_item(), kBudget);
  EXPECT_TRUE(leaf.done());
  EXPECT_EQ(s.plane.env(0).store.size(), 0u);  // every lease was released
}

TEST(UploadAllocBudget, ResumableUploadChunk) {
  Stream s(1, dp::lifl_plane());
  struct Acked {
    Stream* s;
    void operator()() const { ++s->done; }
  };
  s.launch = [](Stream& st, std::uint64_t i) {
    st.plane.client_upload_chunk(0, i, 16'384, 2e6, Acked{&st});
  };
  EXPECT_LE(s.allocs_per_item(), kBudget);
}

TEST(UploadAllocBudget, BrokeredSend) {
  // Producer on node 1, consumer on node 2, broker on node 0: every send
  // takes the longest brokered route (both wires, sidecar on both ends).
  Stream s(3, dp::serverless_plane());
  s.plane.register_consumer(42, 2, [&s](fl::ModelUpdate) { ++s.done; });
  s.launch = [](Stream& st, std::uint64_t i) {
    st.plane.send(7, 1, 42, update(i));
  };
  EXPECT_LE(s.allocs_per_item(), kBudget);
}

TEST(UploadAllocBudget, BrokeredConsume) {
  // Brokered client uploads drained by a pulling leaf on another node than
  // the broker: each pull is a broker delivery carrying the update.
  dp::DataPlaneConfig cfg = dp::serverless_plane();
  cfg.broker_node = 1;
  Stream s(2, cfg);
  s.launch = [](Stream& st, std::uint64_t i) {
    st.plane.client_upload(0, update(i), 2e6);
  };
  fl::AggregatorRuntime leaf(s.plane, pulling_leaf());
  s.leaf = &leaf;
  leaf.start();
  EXPECT_LE(s.allocs_per_item(), kBudget);
  EXPECT_TRUE(leaf.done());
}

TEST(UploadAllocBudget, ResumableSessionIntoPullingLeaf) {
  // The churn campaign's session shape: 4-chunk resumable uploads with
  // mid-upload disconnects and capped offline backoff, hooks capturing
  // what the campaign's do, and the campaign's pooled per-client session
  // counts. Session records, hooks and map nodes all recycle, so a whole
  // session stays well under one allocation.
  struct Sessions {
    const sim::Simulator* sim;
    wl::LifecyclePlan plan;
    dp::ResumableUpload::Counters counters;
    sys::detail::SessionCounts live;
    sys::detail::SessionCounts parked;
    double selected_to_done_secs = 0.0;
  };
  wl::LifecyclePlan::Config pc;
  pc.disconnect_rate = 0.2;
  pc.offline_base_secs = 0.05;
  pc.offline_cap_secs = 1.0;

  Stream s(1, dp::lifl_plane());
  Sessions ss{&s.sim, wl::LifecyclePlan(pc), {}, {}, {}, 0.0};
  s.ctx = &ss;
  s.launch = [](Stream& st, std::uint64_t i) {
    auto* ss = static_cast<Sessions*>(st.ctx);
    const std::uint64_t idx = i % 1000;
    const double selected_at = st.sim.now();
    ++ss->live[idx];
    dp::ResumableUpload::Config rc;
    rc.uplink_bytes_per_sec = 2e6;
    rc.plan = &ss->plan;
    rc.seq = i;
    rc.counters = &ss->counters;
    rc.on_complete = [ss, idx, selected_at](double, std::uint32_t) {
      ss->selected_to_done_secs += ss->sim->now() - selected_at;
      auto it = ss->live.find(idx);
      if (--it->second == 0) ss->live.erase(it);
    };
    rc.on_disconnect = [ss, idx] { ++ss->parked[idx]; };
    rc.on_resume = [ss, idx] {
      auto it = ss->parked.find(idx);
      if (--it->second == 0) ss->parked.erase(it);
    };
    dp::ResumableUpload::launch(st.plane, update(i), std::move(rc));
  };
  fl::AggregatorRuntime leaf(s.plane, pulling_leaf());
  s.leaf = &leaf;
  leaf.start();
  EXPECT_LE(s.allocs_per_item(), 0.5);
  EXPECT_TRUE(leaf.done());
  EXPECT_GT(ss.counters.disconnects, kMeasured / 10);  // the path ran
  EXPECT_EQ(ss.counters.completed, kWarmup + kMeasured);
  EXPECT_GT(ss.selected_to_done_secs, 0.0);
  EXPECT_TRUE(ss.live.empty());
  EXPECT_TRUE(ss.parked.empty());
}

TEST(UploadAllocBudget, RoundStartParksOneDemandRecordPerLeaf) {
  // A planned round start: 62 leaves each arm a 500-update batch of pool
  // pulls at the same instant, against an empty pool. The pool parks one
  // run-length record per leaf, so once a warm-up round has grown the
  // record storage, re-parking the 31,000 pulls allocates (almost) nothing.
  // One waiter per pull would regrow ~1 MB of queue chunks every round
  // (1,873 allocations here).
  constexpr std::size_t kLeaves = 62;
  constexpr std::uint32_t kBatch = 500;
  sim::Simulator sim;
  sim::Cluster cluster(sim, 1);
  dp::DataPlane plane(cluster, dp::lifl_plane(), sim::Rng(7));
  dp::UpdatePool& pool = plane.env(0).pool;
  std::uint64_t sent = 0;
  // Leaves start with an open, empty goal; `set_goal` arms the batch, which
  // isolates the pool's parking from the re-arm's routing updates.
  const auto open_leaf = [&sent](std::size_t i) {
    fl::AggregatorRuntime::Config lc;
    lc.id = 100 + i;
    lc.node = 0;
    lc.goal = 0;
    lc.goal_open = true;
    lc.result_bytes = kBytes;
    lc.pull_from_pool = true;
    lc.on_result = [&sent](fl::ModelUpdate) { ++sent; };
    return lc;
  };
  std::vector<std::unique_ptr<fl::AggregatorRuntime>> leaves;
  for (std::size_t i = 0; i < kLeaves; ++i) {
    leaves.push_back(
        std::make_unique<fl::AggregatorRuntime>(plane, open_leaf(i)));
    leaves.back()->start();
  }
  const auto arm_round = [&] {
    for (auto& leaf : leaves) leaf->set_goal(kBatch);
  };

  // Warm-up round: arm, feed every pull, let every leaf Send.
  arm_round();
  for (std::uint64_t i = 0; i < kLeaves * kBatch; ++i) {
    plane.seed_update(0, update(i));
  }
  sim.run();
  ASSERT_EQ(sent, kLeaves);
  ASSERT_EQ(pool.waiter_count(), 0u);
  for (std::size_t i = 0; i < kLeaves; ++i) leaves[i]->rearm(open_leaf(i));

  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  arm_round();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(pool.waiter_count(), kLeaves * kBatch);
  EXPECT_LE(pool.demand_records(), kLeaves);
  EXPECT_LE(a1 - a0, 1u) << "allocations re-parking the round";

  // The parked runs still serve the round.
  for (std::uint64_t i = 0; i < kLeaves * kBatch; ++i) {
    plane.seed_update(0, update(i));
  }
  sim.run();
  EXPECT_EQ(sent, 2 * kLeaves);
  EXPECT_EQ(pool.demand_records(), 0u);
}

}  // namespace
}  // namespace lifl
