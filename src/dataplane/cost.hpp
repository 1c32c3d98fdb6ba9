#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "src/fl/model_update.hpp"
#include "src/sim/cpu_accounting.hpp"
#include "src/sim/node.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/slab.hpp"
#include "src/sim/task.hpp"

namespace lifl::dp {

/// Which contended resource a cost step executes on.
enum class StepResource : std::uint8_t {
  kCores,      ///< the node's general core pool (userspace work)
  kKernelNet,  ///< the node's kernel network-processing budget
  kNic,        ///< the node's NIC wire
  kGateway,    ///< the node's gateway cores (vertically scaled)
  kBroker,     ///< the cluster's message-broker service threads
  kLatency,    ///< pure delay, no resource (e.g. client uplink wire time)
};

/// One step of a data-plane pipeline: a service time on a resource plus the
/// CPU cycles it bills. Transfers are sequences of steps executed
/// store-and-forward, so queueing/contention at any hop shows up end to end
/// (this is what reproduces Fig. 4).
struct CostStep {
  double seconds = 0.0;  ///< service time on the resource
  double cycles = 0.0;   ///< billed to the node's CPU ledger
  /// Flow key for RSS-steered resources (kGateway): the client/participant
  /// id whose queue this step must execute on.
  std::uint64_t flow = 0;
  sim::NodeId node = 0;
  StepResource where = StepResource::kCores;
  sim::CostTag tag = sim::CostTag::kKernelNet;
};

/// Convenience: make a CPU-type step from cycles (service time = cycles/hz).
CostStep cpu_step(StepResource where, const sim::Node& node, double cycles,
                  sim::CostTag tag, std::uint64_t flow = 0);

/// A pipeline's steps, stored inline. The longest pipeline the data plane
/// builds — a brokered hop whose ends both sit off the broker node, with
/// the container sidecar on both ends — has exactly `kCapacity` steps;
/// appending past that is a builder bug and throws `std::logic_error`.
class StepList {
 public:
  static constexpr std::size_t kCapacity = 10;

  void push_back(const CostStep& s) {
    if (n_ == kCapacity) {
      throw std::logic_error("StepList: pipeline exceeds kCapacity steps");
    }
    steps_[n_++] = s;
  }
  std::size_t size() const noexcept { return n_; }
  const CostStep& operator[](std::size_t i) const { return steps_[i]; }

 private:
  std::array<CostStep, kCapacity> steps_{};
  std::uint8_t n_ = 0;
};

/// Runs a `StepList` sequentially on the cluster's resources, then its
/// continuations.
///
/// The gateway and broker resources are external to `sim::Node`, so callers
/// provide resolvers mapping StepResource::kGateway (per node and flow —
/// the gateway is an RSS multi-queue) and StepResource::kBroker
/// (cluster-wide) to the right Resource.
///
/// In-flight pipelines ("flights") live in a `sim::Slab` owned by the
/// runner; the continuation each Resource holds is a 12-byte {runner, slot}
/// trampoline. A flight carries
/// its steps inline and, optionally, the `fl::ModelUpdate` being moved plus
/// an update continuation, so a transfer makes no heap allocation once the
/// slab has grown to the peak number of concurrent flights. The slab owns
/// parked payloads: destroying the runner with flights still parked in the
/// simulator releases them (the trampolines left behind must then never
/// run — the same rule as for the runner's resources).
class StepRunner {
 public:
  using GatewayResolver =
      std::function<sim::Resource&(sim::NodeId, std::uint64_t flow)>;
  using BrokerResolver = std::function<sim::Resource&()>;
  /// Continuation receiving the update a flight carried.
  using UpdateFn = sim::TaskFn<fl::ModelUpdate>;

  StepRunner(sim::Cluster& cluster, GatewayResolver gateways,
             BrokerResolver broker)
      : cluster_(cluster),
        gateways_(std::move(gateways)),
        broker_(std::move(broker)) {}

  /// Run `steps`, then `done`.
  void run(const StepList& steps, sim::Task done);
  /// Run `steps` carrying `update`, then `then(update)`, then `done`.
  void run(const StepList& steps, fl::ModelUpdate update, UpdateFn then,
           sim::Task done = {});

 private:
  struct Flight {
    StepList steps;
    std::uint32_t i = 0;  ///< index of the step in service
    fl::ModelUpdate update;
    UpdateFn then;
    sim::Task done;
  };
  /// Resource continuation: 12 bytes, always `sim::Task`-inline.
  struct NextFn {
    StepRunner* r;
    std::uint32_t slot;
    void operator()() const { r->advance(slot); }
  };

  void advance(std::uint32_t slot);
  void dispatch(std::uint32_t slot);
  void finish(std::uint32_t slot);

  sim::Cluster& cluster_;
  GatewayResolver gateways_;
  BrokerResolver broker_;
  sim::Slab<Flight> flights_;
};

}  // namespace lifl::dp
