// Steady-state allocation budget of the upload path: once the data plane's
// slabs, queues and pools have warmed up, a client upload (gateway ingest,
// shm lease, node-pool hand-off, leaf fold), a resumable-upload chunk, and a
// brokered send or consume make (almost) no heap allocations.
//
// The counting `operator new` below replaces the global one for this test
// binary only; the library itself never replaces the allocator.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/sim/node.hpp"
#include "src/sim/simulator.hpp"

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

}  // namespace
}  // namespace lifl
