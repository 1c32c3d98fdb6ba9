#include "src/dataplane/cost.hpp"

#include <utility>

namespace lifl::dp {

CostStep cpu_step(StepResource where, const sim::Node& node, double cycles,
                  sim::CostTag tag, std::uint64_t flow) {
  CostStep s;
  s.where = where;
  s.node = node.id();
  s.seconds = cycles / node.config().cpu_hz;
  s.tag = tag;
  s.cycles = cycles;
  s.flow = flow;
  return s;
}

// Both overloads fill the claimed flight in place: the steps are copied
// once, straight into the slab. `finish` left the slot's `then`, `done` and
// `update` moved-from, so a flight without an update need not reset it.
void StepRunner::run(const StepList& steps, sim::Task done) {
  const std::uint32_t slot = flights_.claim();
  Flight& f = flights_[slot];
  f.steps = steps;
  f.i = 0;
  f.then = nullptr;
  f.done = std::move(done);
  dispatch(slot);
}

void StepRunner::run(const StepList& steps, fl::ModelUpdate update,
                     UpdateFn then, sim::Task done) {
  const std::uint32_t slot = flights_.claim();
  Flight& f = flights_[slot];
  f.steps = steps;
  f.i = 0;
  f.update = std::move(update);
  f.then = std::move(then);
  f.done = std::move(done);
  dispatch(slot);
}

void StepRunner::advance(std::uint32_t slot) {
  // The step that just finished service bills its cycles to the node it
  // ran on, then the pipeline moves to the next hop.
  Flight& f = flights_[slot];
  const CostStep& s = f.steps[f.i];
  if (s.cycles > 0) cluster_.node(s.node).cpu().add(s.tag, s.cycles);
  ++f.i;
  dispatch(slot);
}

void StepRunner::dispatch(std::uint32_t slot) {
  Flight& f = flights_[slot];
  if (f.i >= f.steps.size()) {
    finish(slot);
    return;
  }
  const CostStep& s = f.steps[f.i];
  sim::Node& node = cluster_.node(s.node);
  const NextFn next{this, slot};
  switch (s.where) {
    case StepResource::kCores:
      node.cores().acquire(s.seconds, next);
      break;
    case StepResource::kKernelNet:
      node.kernel_net().acquire(s.seconds, next);
      break;
    case StepResource::kNic:
      node.nic().acquire(s.seconds, next);
      break;
    case StepResource::kGateway:
      gateways_(s.node, s.flow).acquire(s.seconds, next);
      break;
    case StepResource::kBroker:
      broker_().acquire(s.seconds, next);
      break;
    case StepResource::kLatency:
      cluster_.sim().schedule_after(s.seconds, next);
      break;
  }
}

void StepRunner::finish(std::uint32_t slot) {
  // Move the continuations (and payload) out and recycle the slot before
  // running them: they may start new flights, which can grow the slab.
  Flight& f = flights_[slot];
  UpdateFn then = std::move(f.then);
  sim::Task done = std::move(f.done);
  fl::ModelUpdate update = std::move(f.update);
  flights_.release(slot);
  if (then) then(std::move(update));
  if (done) done();
}

}  // namespace lifl::dp
