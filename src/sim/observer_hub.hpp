// ObserverHub: fan-out multiplexer for FluidObserver.
//
// FluidSimulator dispatches to a single observer slot.  The hub turns the
// slot into a composition point: any number of observers register with
// add()/remove() and every simulator callback fans out to all of them in
// attachment order.
//
// FluidSimulator owns one hub internally and promotes the slot to it the
// moment a second observer arrives (see FluidSimulator::addObserver), so
// tracing composes with fault-injection or mirroring listeners instead of
// fighting over the slot.  The hub is also usable standalone for tests.
#pragma once

#include <vector>

#include "sim/fluid.hpp"

namespace beesim::sim {

class ObserverHub final : public FluidObserver {
 public:
  /// Register an observer (non-null; duplicates are ignored).  The caller
  /// keeps ownership and must outlive the hub's dispatching.
  void add(FluidObserver* observer);

  /// Deregister; no-op when the observer is not registered.  Safe to call
  /// from inside a callback of the observer being removed (the dispatch
  /// loop re-checks bounds), which is what observer destructors do.
  void remove(FluidObserver* observer);

  std::size_t size() const { return observers_.size(); }
  bool empty() const { return observers_.empty(); }
  bool contains(const FluidObserver* observer) const;

  // FluidObserver: forward to every registered observer in attach order.
  void onFlowStarted(FlowId id, std::span<const ResourceIndex> path, util::Bytes bytes,
                     SimTime at) override;
  void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                     std::span<const util::MiBps> rates, std::size_t activeFlows) override;
  void onFlowCompleted(const FlowStats& stats) override;
  void onFlowCancelled(const FlowStats& stats) override;

 private:
  std::vector<FluidObserver*> observers_;
  /// Cursor of the dispatch loop currently running; remove() pulls it back
  /// when erasing at or before it so later observers are not skipped.
  /// (Unsigned wrap on removing index 0 mid-dispatch is intended: the ++ of
  /// the loop brings the cursor back to the shifted-down element.)
  std::size_t dispatchIndex_ = 0;
};

}  // namespace beesim::sim
