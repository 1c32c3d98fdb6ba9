// Pipeline bound and teardown of the allocation-free data plane.
//
// Flights, hand-offs and leases live in recycled slab / free-list memory,
// where AddressSanitizer cannot see a stale index or a use after free, so
// the two invariants they rest on are checked explicitly: every pipeline
// the plane builds fits the inline `StepList`, and tearing a plane down
// with work still parked in its simulator releases that work cleanly.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"

namespace lifl::dp {
namespace {

fl::ModelUpdate update(std::uint64_t producer = 1) {
  fl::ModelUpdate u;
  u.producer = producer;
  u.sample_count = 10;
  u.logical_bytes = 1'000'000;
  return u;
}

TEST(StepList, OverflowThrowsLogicError) {
  StepList steps;
  for (std::size_t i = 0; i < StepList::kCapacity; ++i) {
    steps.push_back(CostStep{});
  }
  EXPECT_EQ(steps.size(), StepList::kCapacity);
  EXPECT_THROW(steps.push_back(CostStep{}), std::logic_error);
  EXPECT_EQ(steps.size(), StepList::kCapacity);
}

/// Three nodes, broker on node 0: producer and consumer on nodes 1 and 2
/// make every brokered route take both broker wires.
struct World {
  sim::Simulator sim;
  sim::Cluster cluster;
  DataPlane plane;

  explicit World(DataPlaneConfig cfg)
      : cluster(sim, 3), plane(cluster, cfg, sim::Rng(5)) {}

  /// Service completions on every resource a step can occupy (the pure
  /// latency step of a client upload is not a resource).
  std::uint64_t resource_steps() {
    std::uint64_t n = plane.broker_service().completed();
    for (sim::NodeId i = 0; i < 3; ++i) {
      sim::Node& node = cluster.node(i);
      n += node.cores().completed() + node.kernel_net().completed() +
           node.nic().completed() + plane.env(i).gateway.completed();
    }
    return n;
  }
};

struct Config {
  PlaneKind plane;
  SidecarKind sidecar;
  bool broker;
};

class PipelineBound : public ::testing::TestWithParam<Config> {};

TEST_P(PipelineBound, EveryPipelineFitsTheStepList) {
  const Config c = GetParam();
  DataPlaneConfig cfg;
  cfg.plane = c.plane;
  cfg.sidecar = c.sidecar;
  cfg.use_broker = c.broker;
  cfg.broker_node = 0;
  World w(cfg);
  int delivered = 0;
  w.plane.register_consumer(41, 1, [&](fl::ModelUpdate) { ++delivered; });
  w.plane.register_consumer(42, 2, [&](fl::ModelUpdate) { ++delivered; });

  // Runs one pipeline alone and returns the resource steps it took.
  const auto steps_of = [&](const auto& start) {
    const std::uint64_t before = w.resource_steps();
    EXPECT_NO_THROW(start());
    w.sim.run();
    const std::uint64_t n = w.resource_steps() - before;
    EXPECT_LE(n, StepList::kCapacity);
    return n;
  };
  const auto intra = steps_of([&] { w.plane.send(7, 1, 41, update()); });
  const auto inter = steps_of([&] { w.plane.send(7, 1, 42, update()); });
  EXPECT_EQ(delivered, 2);
  steps_of([&] { w.plane.client_upload(2, update(), 1e9); });  // ingest
  fl::ModelUpdate queued;
  ASSERT_TRUE(w.plane.env(2).pool.try_pop(queued));
  bool ready = false;
  steps_of([&] {
    w.plane.consume(2, queued, [&](fl::ModelUpdate got) {
      ready = got.logical_bytes == queued.logical_bytes;
    });
  });
  EXPECT_TRUE(ready);

  if (c.plane != PlaneKind::kLifl && c.broker &&
      c.sidecar == SidecarKind::kContainer) {
    // The longest pipeline: a brokered hop whose ends both sit off the
    // broker node, with the container sidecar on both ends, fills the list
    // exactly.
    EXPECT_EQ(intra, StepList::kCapacity);
    EXPECT_EQ(inter, StepList::kCapacity);
  }
}

std::vector<Config> all_configs() {
  std::vector<Config> out;
  for (auto plane :
       {PlaneKind::kLifl, PlaneKind::kServerful, PlaneKind::kServerless}) {
    for (auto sidecar :
         {SidecarKind::kNone, SidecarKind::kContainer, SidecarKind::kEbpf}) {
      for (bool broker : {false, true}) out.push_back({plane, sidecar, broker});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllPlanes, PipelineBound,
                         ::testing::ValuesIn(all_configs()));

TEST(DataPlaneTeardown, ParkedFlightsHandoffsAndLeasesReleaseCleanly) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, 2);
  const sim::Rng rng(9);
  auto plane = std::make_unique<DataPlane>(cluster, lifl_plane(), rng);
  fl::ModelUpdate survivor;
  {
    // A pulling leaf that goes away leaves its waiters parked in the pool.
    fl::AggregatorRuntime::Config lc;
    lc.id = 3;
    lc.node = 0;
    lc.goal = 8;
    lc.pull_from_pool = true;
    fl::AggregatorRuntime leaf(*plane, std::move(lc));
    leaf.start();
  }
  int delivered = 0;
  plane->register_consumer(4, 1, [&](fl::ModelUpdate) { ++delivered; });
  for (std::uint64_t i = 0; i < 16; ++i) {
    plane->client_upload(0, update(i), 1e9);  // flights mid-pipeline
    plane->send(5, 0, 4, update(i));          // inter-node, lease on node 1
  }
  sim.run_until(2e-3);
  EXPECT_EQ(delivered, 0);
  plane->seed_update(1, update(99));
  ASSERT_TRUE(plane->env(1).pool.try_pop(survivor));
  ASSERT_TRUE(survivor.lease);
  // Hand-offs: pushes into node 0's pool wake the stale waiters at this
  // instant, so each {waiter, update} pair is parked until the event runs.
  for (std::uint64_t i = 0; i < 4; ++i) plane->seed_update(0, update(i));
  EXPECT_EQ(plane->env(0).pool.waiter_count(), 4u);
  EXPECT_EQ(plane->env(0).pool.depth(), 0u);
  // Tear the plane down with flights, hand-offs and leases outstanding;
  // the simulator (and the trampolines it holds) is destroyed without
  // running them. `survivor` keeps a lease past its store.
  plane.reset();
  survivor = fl::ModelUpdate{};
}

}  // namespace
}  // namespace lifl::dp
