// Fluid (flow-level) simulation on top of the discrete-event core.
//
// Model: data transfers are fluid flows crossing a set of resources (links,
// NICs, service processes, devices).  Between events the rate vector is the
// max-min fair allocation (see maxmin.hpp); whenever the flow population or a
// capacity changes, rates are re-solved.  Virtual time then advances directly
// to the next interesting instant (a flow completion or a scheduled capacity
// refresh), so a 100-repetition IOR campaign that takes hours of wall-clock
// on a real cluster simulates in milliseconds.
//
// Resources may have *load-dependent* capacities: the capacity callback
// receives the number of crossing flows and their aggregate queue weight.
// This is how storage devices expose a concurrency ramp (an HDD RAID array
// needs a deep queue to stream at full speed) and how stochastic variability
// enters (callbacks may sample per-epoch noise keyed on the current time).
//
// Incremental resolution: max-min fair allocation decomposes exactly over the
// connected components of the flow/resource bipartite graph, so the simulator
// tracks components with a union-find over resources and re-solves only the
// *dirty* ones -- those whose flow membership or member capacities changed
// since the last solve.  Two applications pinned to disjoint OSTs therefore
// cost each other nothing per event (O(own component), not O(world)).  All
// bookkeeping lives in flat slot-indexed arrays reused across the run; a
// steady-state resolve performs zero heap allocations.
//
// Flow classes and cohorts: ranks of one node writing to one target start
// flows with byte-identical paths, weights and caps, which max-min gives
// identical rates.  startFlow files each flow under a class keyed on exactly
// that triple (the class table is reset with the union-find when the system
// drains).  Flows of one class that also hold bit-identical remaining bytes
// form a *cohort*: a starting flow joins a cohort of its class whose
// remaining MiB match its size bit for bit (its members started at the same
// instant, or have been stalled since), and opens a new one otherwise.  The
// cohort is the unit of progress -- banking, the completion horizon and
// settling loop over cohorts -- while a flow keeps only its identity and
// list links and reads its path, weight, cap and rate from its class.  A
// component whose classes share one weight is solved over a class problem
// compiled once per class set (recompiled only when a class enters or
// leaves or components merge), each class with its live member count as
// multiplicity (see maxmin.hpp for why the rates are bit-identical).
// Components mixing weights are solved flow by flow over a position view
// built from the class paths.  Observers still get every flow's rate, in
// component-list order.
//
// ε-bounded resolution (setSolverEpsilon): on top of the exact component
// decomposition, a component whose dirtiness stems *only* from capacity
// drift may be deferred when the accumulated drift provably cannot move any
// of its rates by more than ε.  The bound is the conservative slack
// Σ_r |Δcapacity_r| over the component's resources since its last exact
// solve (weighted max-min rates are 1-Lipschitz in each capacity, and
// deviations are subadditive across changes), so skipped components keep
// rates within ε MiB/s of the exact allocation.  Deferral composes with the
// completion horizons: a deferred component's horizon stays valid because
// its simulated rates are unchanged, and any structural event (flow start,
// completion, cancellation, merge, capacity hitting or leaving zero) forces
// an exact solve, which resets the drift.  The dirty-root list is thus the
// propagation frontier: a rate change travels exactly as far as it can
// matter, and with ε = 0 (the default) behavior is bit-identical to the
// always-exact path.
//
// Setting BEESIM_SOLVER_CHECK=1 (or setSolverCheck(true)) turns on a
// differential mode that re-solves every resolve from scratch over all live
// flows and asserts the incremental rates match to 1e-9 relative; it also
// keeps a per-flow shadow of every flow's remaining bytes, updated by the
// per-flow rule, and asserts each equals its cohort's bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/maxmin.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim::sim {

/// Index of a resource inside a FluidSimulator.
struct ResourceIndex {
  std::uint32_t value = 0;
};

/// Load snapshot passed to capacity callbacks at every solve.
struct ResourceLoad {
  /// Number of unfinished flows crossing the resource.
  std::size_t flowCount = 0;
  /// Sum of the queueWeight of those flows.  Storage models read this as an
  /// effective queue depth (outstanding requests).
  double queueDepth = 0.0;
  /// Current virtual time; lets callbacks resample per-epoch noise.
  SimTime time = 0.0;
};

/// Capacity model of a resource.  Must be pure given (load, its own state);
/// it is invoked exactly once per loaded resource per resolve.
using CapacityFn = std::function<util::MiBps(const ResourceLoad&)>;

/// Convenience: constant capacity.
CapacityFn constantCapacity(util::MiBps capacity);

struct ResourceSpec {
  std::string name;
  CapacityFn capacity;
};

/// Opaque flow handle: a generation-stamped slot index, unique per simulator
/// up to 2^32 reuses of one internal slot.  Handles are not ordered by start
/// time; compare them for equality only.  0 (the default) means "no flow".
struct FlowId {
  std::uint64_t value = 0;
  friend bool operator==(FlowId a, FlowId b) { return a.value == b.value; }
};

/// Statistics delivered to the completion callback.
struct FlowStats {
  FlowId id;
  SimTime startTime = 0.0;
  SimTime endTime = 0.0;
  util::Bytes bytes = 0;

  /// Mean rate over the flow's lifetime (MiB/s).
  util::MiBps meanRate() const {
    return endTime > startTime ? util::bandwidth(bytes, endTime - startTime) : 0.0;
  }
};

/// The resources a flow crosses, held inline so that building a flow spec
/// and handing it to startFlow never touches the heap.  The deepest path the
/// model builds has six hops (client -> node NIC -> backbone -> server NIC
/// -> OSS -> OST); pushing past kCapacity is a ContractError.  A value type:
/// copies are independent.
class FlowPath {
 public:
  static constexpr std::size_t kCapacity = 8;

  FlowPath() = default;
  FlowPath(std::initializer_list<ResourceIndex> resources) {
    for (const auto r : resources) push_back(r);
  }

  void push_back(ResourceIndex r) {
    BEESIM_ASSERT(size_ < kCapacity, "flow path longer than FlowPath::kCapacity");
    items_[size_++] = r;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const ResourceIndex* begin() const { return items_.data(); }
  const ResourceIndex* end() const { return items_.data() + size_; }
  const ResourceIndex& operator[](std::size_t i) const { return items_[i]; }
  operator std::span<const ResourceIndex>() const { return {items_.data(), size_}; }

 private:
  std::array<ResourceIndex, kCapacity> items_{};
  std::uint32_t size_ = 0;
};

struct FlowSpec {
  /// Resources the flow crosses (e.g. client -> node NIC -> server NIC ->
  /// service -> device).  Must be non-empty.
  FlowPath path;
  /// Total bytes to transfer.  Zero-byte flows complete immediately.
  util::Bytes bytes = 0;
  /// Contribution to the queueDepth of every crossed resource, and the
  /// flow's weight in the weighted max-min fair sharing (a flow backed by
  /// more outstanding requests both deepens device queues and claims a
  /// proportionally larger share of shared links).
  double queueWeight = 1.0;
  /// Per-flow rate cap in MiB/s (<= 0: uncapped).
  util::MiBps rateCap = 0.0;
  /// Invoked (from inside the event loop) when the flow finishes.
  std::function<void(const FlowStats&)> onComplete;
};

/// Observer of fluid-simulation events (see sim/trace.hpp for the standard
/// implementation).  All callbacks fire from inside the event loop.  Spans
/// are views into simulator-owned storage, valid only for the call.
class FluidObserver {
 public:
  virtual ~FluidObserver() = default;

  /// A flow entered the system.
  virtual void onFlowStarted(FlowId id, std::span<const ResourceIndex> path,
                             util::Bytes bytes, SimTime at) = 0;

  /// Rates were re-solved; `rates[i]` belongs to `ids[i]`.  Only flows whose
  /// component was re-solved are reported (others keep their previous rate);
  /// `activeFlows` is the total live-flow count for context.
  virtual void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                             std::span<const util::MiBps> rates,
                             std::size_t activeFlows) = 0;

  /// A flow finished.
  virtual void onFlowCompleted(const FlowStats& stats) = 0;

  /// A flow was cancelled before finishing (stats.bytes holds the bytes that
  /// were *not* transferred).  Default no-op so existing observers are
  /// unaffected.
  virtual void onFlowCancelled(const FlowStats& stats) { (void)stats; }
};

class ObserverHub;

class FluidSimulator {
 public:
  FluidSimulator();
  ~FluidSimulator();

  FluidSimulator(const FluidSimulator&) = delete;
  FluidSimulator& operator=(const FluidSimulator&) = delete;

  /// The underlying event engine (for scheduling waits, staggered app starts,
  /// interference, ...).
  Simulator& engine() { return engine_; }
  SimTime now() const { return engine_.now(); }

  /// Register a resource.  All resources must be added before flows start.
  ResourceIndex addResource(ResourceSpec spec);
  std::size_t resourceCount() const { return resources_.size(); }
  const std::string& resourceName(ResourceIndex idx) const;

  /// Start a flow at the current virtual time.  Returns its id.
  FlowId startFlow(FlowSpec spec);

  /// Schedule a flow to start at a later virtual time.
  void startFlowAt(SimTime at, FlowSpec spec);

  /// Current max-min rate of an active flow (0 if finished/unknown).
  util::MiBps flowRate(FlowId id) const;

  /// Whether a flow is still in the system (started and not yet finished or
  /// cancelled).  Stale ids are safely reported as inactive.
  bool flowActive(FlowId id) const;

  /// Cancel an active flow: progress is banked up to now(), the flow leaves
  /// the system and its onComplete callback is dropped (never invoked).
  /// Returns the bytes that had not been transferred yet, or std::nullopt if
  /// the id is unknown or the flow already finished.  The client failure
  /// semantics use this to abort chunks stalled on a failed target.
  std::optional<util::Bytes> cancelFlow(FlowId id);

  /// Number of unfinished flows.
  std::size_t activeFlows() const { return activeCount_; }

  /// Re-solve rates periodically (every `interval` seconds) while flows are
  /// active, so load-dependent/noisy capacities are refreshed even between
  /// completions.  <= 0 disables (default).
  void setResolveInterval(util::Seconds interval) { resolveInterval_ = interval; }

  /// Force capacities to be re-evaluated and rates re-solved at the current
  /// time (e.g. after an external capacity change).
  void invalidateCapacities();

  /// Tolerance (MiB/s) for ε-bounded resolution: a component dirtied only by
  /// capacity drift is re-solved lazily, once the accumulated per-resource
  /// capacity deltas could move some rate by more than ε (see the header
  /// comment for the bound).  0 (the default) keeps every resolve exact --
  /// and every golden byte identical.  Must be >= 0.
  void setSolverEpsilon(double epsilon);
  double solverEpsilon() const { return epsilon_; }

  /// Resolves skipped under the ε bound (diagnostics / scale bench).
  std::size_t deferredResolves() const { return deferredResolves_; }

  /// Solve every component flow by flow, without class aggregation (no
  /// compiled class problems).  Rates are bit-identical either way (see
  /// sim/maxmin.hpp); this is the check on the aggregated rates, and the
  /// reference leg of the scale benchmark.
  void setReferenceSolver(bool enabled) { referenceSolver_ = enabled; }

  /// Attach an observer *alongside* any already installed: the first
  /// observer occupies the slot directly (zero fan-out overhead); a second
  /// one promotes the slot to an internally-owned ObserverHub that fans
  /// every event out in attachment order.  The caller keeps ownership and
  /// must outlive the simulation.
  void addObserver(FluidObserver* observer);

  /// Detach an observer attached via addObserver (or occupying the slot
  /// directly).  No-op when it is not attached -- in particular it never
  /// detaches a *different* observer installed after this one, which is the
  /// contract observer destructors rely on.
  void removeObserver(FluidObserver* observer);

  /// The currently dispatched observer (the hub once promoted).
  const FluidObserver* observer() const { return observer_; }

  /// Enable/disable the differential solver check (also via the
  /// BEESIM_SOLVER_CHECK environment variable): every resolve additionally
  /// re-solves all live flows from scratch and asserts the incremental rates
  /// match to 1e-9 relative; that the incremental load accounting, class
  /// member counts and compiled class sets agree with an exact recount;
  /// that every flow's cohort holds exactly the remaining bytes a per-flow
  /// shadow, advanced by the per-flow rule, does; and that every live id is
  /// its slot's current handle and no free slot is live or awaits its report.
  void setSolverCheck(bool enabled);

  /// Run until all events *and* flows drain.  Throws ContractError if flows
  /// remain but cannot make progress (all rates zero with no future events).
  void run();

  // Diagnostics (micro-benchmark / tests).
  std::size_t resolveCount() const { return resolveCount_; }
  std::size_t solverIterations() const { return solverIterations_; }
  std::size_t lastSolvedFlows() const { return lastSolvedFlows_; }

  /// Enable wall-clock profiling of resolves.  Off by default so the hot
  /// path never calls the clock; when on, solveSeconds() accumulates the
  /// host wall time spent inside resolveNow().
  void setProfiling(bool enabled) { profiling_ = enabled; }
  double solveSeconds() const { return solveSeconds_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  using Seconds = util::Seconds;

  // Union-find over resources (merge-only; reset when the system drains).
  std::uint32_t findRoot(std::uint32_t r) const;
  std::uint32_t unite(std::uint32_t a, std::uint32_t b, SimTime at);
  /// Mark a component for re-solve.  `structural` records membership changes
  /// (start/completion/cancel/merge, zero-capacity transitions), which the
  /// ε deferral must never skip; pure capacity drift may be deferred.
  void markDirty(std::uint32_t root, bool structural = true);
  void listComponent(std::uint32_t root);
  void resetComponents();
  /// Size the per-resource and per-component arrays to the registered
  /// resources (a no-op once they match).
  void syncResourceState();
  /// The component a live flow belongs to (the root of its class's path).
  std::uint32_t rootOfFlow(std::uint32_t slot) const;

  /// Bank progress of one component's cohorts up to `t` at the current rates.
  void advanceComponent(std::uint32_t root, SimTime t);
  /// Advance to `t` and move finished flows out of the component into
  /// drain_ (bookkeeping updated; callbacks NOT yet run).
  void settleComponent(std::uint32_t root, SimTime t);
  /// Take a finished flow out of the system and queue its slot on drain_.
  void finishFlow(std::uint32_t slot, std::uint32_t root);
  /// Report a reserved slot's completion at `end` to the observer, run its
  /// callback, and only then free the slot.
  void completeSlot(std::uint32_t slot, SimTime end);
  /// Unlink a flow from its component, cohort and class bookkeeping.
  void unlinkFlow(std::uint32_t slot, std::uint32_t root);
  void removeFlowLoad(std::uint32_t slot);
  /// Solve one dirty component, leaving the rates in classRate_.
  void solveComponent(std::uint32_t root);
  /// Collect the component's live classes into subsetClasses_; returns
  /// whether they all share one weight.
  bool gatherClasses(std::uint32_t root);
  /// Fill the position view (one entry per live flow, in `slots` order)
  /// and solve it flow by flow into posRate_.
  std::size_t solvePositions(std::span<const std::uint32_t> slots, SolverWorkspace& workspace);

  void scheduleResolve();
  void resolveNow();
  void scheduleNextWakeup();
  void runSolverCheck();

  /// Take a free slot and stamp it with a new generation (its handle).
  std::uint32_t allocateFlowSlot();
  void freeFlowSlot(std::uint32_t slot);
  /// The handle of the slot's current tenant: slot | generation << 32.
  std::uint64_t handleOf(std::uint32_t slot) const {
    return slot | std::uint64_t{flowGen_[slot]} << 32;
  }
  /// The slot of a live flow, or kNone for a finished, cancelled or stale id.
  std::uint32_t liveSlot(FlowId id) const;
  /// A live cohort of the class holding exactly `remaining` MiB, or kNone.
  std::uint32_t findCohort(std::uint32_t cls, double remaining) const;
  /// Open a cohort and make it the class's newest.
  std::uint32_t allocateCohort(std::uint32_t cls, double remaining, std::uint32_t root);
  void releaseCohort(std::uint32_t cohort, std::uint32_t root);
  void releaseCompiled(std::uint32_t root);
  /// The rate a live flow currently transfers at (0 until its first solve).
  double rateOf(std::uint32_t slot) const {
    return flowRound_[slot] == solveRound_ ? 0.0 : classRate_[flowClass_[slot]];
  }
  /// The class of a flow with this solver-facing path, weight and cap,
  /// created on first sight.
  std::uint32_t classOf(const std::uint32_t* path, std::uint32_t len, double weight,
                        double rateCap);

  Simulator engine_;
  std::vector<ResourceSpec> resources_;

  // --- Per-resource state (indexed by resource) ---
  std::vector<double> resCapacity_;      // last evaluated capacity
  std::vector<std::uint32_t> resFlowCount_;
  std::vector<double> resQueueDepth_;
  std::vector<char> resLoaded_;          // member of loadedRes_
  mutable std::vector<std::uint32_t> ufParent_;  // path compression in findRoot
  std::vector<std::uint32_t> ufSize_;
  /// Resources with at least one crossing flow (lazily compacted): the
  /// per-resolve capacity evaluation walks this list, so its cost scales
  /// with the *loaded* inventory, not the cluster-wide resource count.
  std::vector<std::uint32_t> loadedRes_;

  // --- Per-component state (indexed by union-find root resource) ---
  struct Component {
    std::uint32_t head = kNone;  // doubly linked flow-slot list
    std::uint32_t tail = kNone;
    std::uint32_t cohortHead = kNone;  // doubly linked cohort list
    std::uint32_t cohortTail = kNone;
    std::uint32_t flowCount = 0;
    std::uint32_t compiled = kNone;  // pooled class problem, bound at first use
    SimTime lastProgress = 0.0;
    SimTime nextCompletion = std::numeric_limits<double>::infinity();  // absolute
    double capDrift = 0.0;  // Σ|Δcapacity| since the last exact solve
    char dirty = 0;
    char structural = 0;      // dirtiness includes a membership change
    char listed = 0;          // member of activeRoots_
    char classesChanged = 0;  // a class entered or left, or a merge
    char oneWeight = 0;       // as of the last class gather
  };
  std::vector<Component> comps_;
  std::vector<std::uint32_t> activeRoots_;  // lazily filtered
  std::vector<std::uint32_t> dirtyRoots_;

  // --- Per-flow state (slot-indexed) ---
  // A flow keeps only its identity and list links; its path, weight, cap
  // and rate live in its class, its remaining bytes in its cohort.  flowId_
  // holds a live flow's handle and 0 otherwise: a finished flow's slot stays
  // reserved (inactive, off the free list) until its completion is reported.
  std::vector<std::uint64_t> flowId_;
  std::vector<std::uint32_t> flowGen_;  // generation of the slot's latest tenant
  std::vector<SimTime> flowStart_;
  std::vector<util::Bytes> flowBytes_;
  std::vector<std::function<void(const FlowStats&)>> flowOnComplete_;
  std::vector<std::uint32_t> flowClass_;
  std::vector<std::uint32_t> flowCohort_;
  std::vector<std::uint32_t> flowPrev_;  // component list
  std::vector<std::uint32_t> flowNext_;
  std::vector<std::uint32_t> flowCohortPrev_;  // cohort member list
  std::vector<std::uint32_t> flowCohortNext_;
  std::vector<std::uint64_t> flowRound_;  // solveRound_ at start
  std::vector<double> flowShadow_;       // solver check: per-flow remaining MiB
  std::vector<std::uint32_t> freeFlowSlots_;

  // --- Cohorts (pooled): a class's flows holding bit-identical remaining
  // bytes, which the shared class rate keeps identical.  Members are listed
  // in component-list order. ---
  // Parallel arrays rather than one struct: the progress, horizon and
  // settle loops read only the remaining bytes, class and next link, and a
  // struct of all fields made md_queued's resolves ~30% slower.
  std::vector<double> cohortRemaining_;  // MiB
  std::vector<std::uint32_t> cohortClass_;
  std::vector<std::uint32_t> cohortHead_;  // member list
  std::vector<std::uint32_t> cohortTail_;
  std::vector<std::uint32_t> cohortSize_;
  std::vector<std::uint32_t> cohortPrev_;  // component cohort list
  std::vector<std::uint32_t> cohortNext_;
  std::vector<char> cohortFinished_;  // settle scratch
  std::vector<std::uint32_t> cohortOlder_;  // the class's newest when opened
  std::vector<std::uint64_t> cohortSeq_;    // opening order
  std::vector<std::uint32_t> freeCohorts_;
  std::uint64_t cohortSeqNext_ = 0;
  SimTime cohortInstant_ = std::numeric_limits<double>::quiet_NaN();  // latest start
  std::uint64_t cohortInstantSeq_ = 0;  // first cohort opened at that instant

  // --- Flow classes (indexed by class id; reset when the system drains) ---
  // One entry per distinct (path, weight, cap) seen in the episode, in the
  // CSR layout SolverView consumes; classBuckets_ is an open-addressed hash
  // index (kNone marks an empty bucket).  classLive_ counts live members,
  // classRate_ is the rate of the last solve of the class's component, and
  // classNewest_ the cohort it opened last (the head of the chain of its
  // cohorts a starting member may join, see findCohort).
  std::vector<std::uint32_t> classAdjacency_;
  std::vector<std::uint32_t> classAdjOffset_;
  std::vector<std::uint32_t> classAdjLen_;
  std::vector<double> classWeight_;
  std::vector<double> classRateCap_;
  std::vector<std::uint64_t> classHash_;
  std::vector<std::uint32_t> classLive_;
  std::vector<double> classRate_;
  std::vector<std::uint32_t> classNewest_;
  std::vector<char> classMark_;  // gather scratch
  std::vector<std::uint32_t> classBuckets_;

  // --- Compiled class problems, pooled and bound to a root at its first
  // class solve ---
  std::vector<CompiledClasses> compiled_;
  std::vector<std::uint32_t> freeCompiled_;

  // --- Resolve scratch (reused; no steady-state allocations) ---
  SolverWorkspace workspace_;
  std::vector<std::uint32_t> pathScratch_;
  std::vector<std::uint32_t> subsetClasses_;
  std::vector<std::uint32_t> subsetSlots_;
  // Position view: one entry per flow, read from its class.
  std::vector<std::uint32_t> posOffset_;
  std::vector<std::uint32_t> posLen_;
  std::vector<double> posWeight_;
  std::vector<double> posRateCap_;
  std::vector<double> posRate_;
  std::vector<std::uint32_t> positions_;  // 0, 1, 2, ...
  std::vector<FlowId> solvedIds_;
  std::vector<util::MiBps> solvedRates_;
  std::vector<std::uint32_t> drain_;  // finished slots awaiting their report
  SolverWorkspace checkWorkspace_;

  std::size_t activeCount_ = 0;
  std::uint64_t solveRound_ = 0;  // completed resolve passes
  bool resolvePending_ = false;
  bool pendingAllDirty_ = false;
  bool solverCheck_ = false;
  bool referenceSolver_ = false;
  double epsilon_ = 0.0;
  Seconds resolveInterval_ = 0.0;
  std::optional<EventId> wakeup_;
  FluidObserver* observer_ = nullptr;
  std::unique_ptr<ObserverHub> hub_;  // owned fan-out, created on demand

  std::size_t resolveCount_ = 0;
  std::size_t solverIterations_ = 0;
  std::size_t lastSolvedFlows_ = 0;
  std::size_t deferredResolves_ = 0;
  bool profiling_ = false;
  double solveSeconds_ = 0.0;
};

}  // namespace beesim::sim
