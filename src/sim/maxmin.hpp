// Max-min fair bandwidth sharing (progressive filling).
//
// This is the heart of the flow-level network/storage model.  Given a set of
// resources with capacities (MiB/s) and a set of flows, each crossing a
// subset of the resources and optionally rate-capped, the solver computes the
// unique max-min fair rate vector: rates are raised uniformly until a
// resource (or a flow cap) saturates, the flows bottlenecked there are
// frozen, and filling continues with the rest.
//
// The allocation is *weighted*: each flow's share scales with its weight
// (its outstanding-request intensity).  TCP-like fair sharing on a congested
// Ethernet link is exactly what the paper's Scenario 1 exercises (Fig. 8/9: the hotter of the two server links
// dictates completion time); the same abstraction covers storage-side
// service capacity in Scenario 2.
//
// Entry points:
//
//   * solveMaxMin(resources, flows) -- the self-contained call, allocating
//     per call; tests compare the other entry points against it.
//   * SolverWorkspace::solveSubset -- the allocation-free per-flow walk used
//     by the fluid simulator for components that mix weights and by its
//     reference mode.  The caller owns the problem in flat CSR-style arrays
//     (one shared adjacency arena, per-flow offset/length) and asks for the
//     rates of an arbitrary *subset* of flows (one connected component at a
//     time).  All scratch state lives in the workspace and is reused across
//     solves, so a steady-state resolve performs zero heap allocations.
//   * SolverWorkspace::compileClasses + solveCompiled -- the class solve
//     below, which is what the fluid simulator runs on every one-weight
//     component.
//
// Flow classes: flows with byte-identical (path, weight, cap) -- ranks of one
// node writing to one target -- receive identical max-min rates, so a caller
// may name one *class* slot per group and give its member count as a
// multiplicity.  The rates are bit-identical to solving the expanded flows
// one by one, provided every class in the subset shares one weight w: a
// resource's active weight is then the sequential sum of its K crossing
// members' copies of w, read from a table S[k] = S[k-1] + w (the exact
// additions the per-flow walk performs); a freezing class subtracts w once
// per member, or resets the weight to exactly 0.0 when the member count
// reaches 0; and every rate increment, delta candidate and freeze test of a
// class is the same operation on the same values as for each of its members,
// so even the iteration count is unchanged.  With mixed weights the order of
// the per-flow additions matters, so callers solve such subsets flow by flow.
//
// One fill level: at one weight every filling class starts at 0.0 and
// receives the same `+= delta * w`, so the class solve keeps a single scalar
// `level` for all of them.  A class takes the level as its rate when it
// freezes (a dead class takes 0.0) and is not touched again.  Cap candidates
// are `(cap - level) / w` over the compiled list of capped classes, frozen
// classes carry the solve's stamp, and the weight release -- the only walk
// over a freezing class's path -- is skipped once no class is left filling.
// These are the per-class operations on the same values, so an iteration
// costs O(resources + capped + freezing classes) rather than
// O(resources + classes) and the results keep their bits.
//
// A class problem is solved in two steps.  compileClasses does everything
// that depends only on the class set -- the dense renumbering of resources,
// the per-class adjacency and its resource->class transpose -- and
// solveCompiled reads the current capacities and member counts and fills.
// A caller whose class set is stable (the fluid simulator's components
// between class arrivals and departures) compiles once and re-solves the
// compiled problem at every capacity or count change.  At one weight the
// solve does not depend on the order of the classes, so a compiled problem
// keeps its own.
//
// Degenerate inputs are well-defined:
//   * a flow crossing a zero-capacity resource receives rate 0 (it never
//     enters the filling and contributes no weight anywhere);
//   * a subset whose flows are all dead this way solves to all-zero rates;
//   * a flow with weight <= 0 or an empty resource list is a contract
//     violation (ContractError) -- weights are queue depths and must be
//     positive for the weighted allocation to be defined.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace beesim::sim {

/// Solver input: one resource with an effective capacity for this solve.
struct SolverResource {
  util::MiBps capacity = 0.0;
};

/// Solver input: one flow crossing `resources` (indices into the resource
/// array).  `rateCap` bounds the flow's own rate (<= 0 means uncapped).
/// `weight` scales the flow's fair share (weighted max-min): a flow backed
/// by twice the outstanding requests receives twice the rate on a shared
/// bottleneck.  Flows of one application have equal weights, so single-app
/// experiments reduce to the classic unweighted allocation.
struct SolverFlow {
  std::vector<std::uint32_t> resources;
  util::MiBps rateCap = 0.0;
  double weight = 1.0;
};

struct SolverResult {
  /// Max-min fair rate per flow, same order as the input.
  std::vector<util::MiBps> rates;
  /// Number of filling iterations (diagnostics / micro-bench).
  std::size_t iterations = 0;
};

/// CSR-style view of a max-min problem.  The per-flow arrays are indexed by
/// *flow slot*; a slot's crossed resources are
/// `adjacency[adjOffset[f] .. adjOffset[f] + adjLen[f])`.  Slots not named
/// in a solveSubset or compileClasses call are ignored entirely, so callers
/// may keep free (stale) slots in the arrays.
struct SolverView {
  std::span<const double> capacity;          // per resource
  std::span<const std::uint32_t> adjacency;  // shared resource-index arena
  std::span<const std::uint32_t> adjOffset;  // per flow slot
  std::span<const std::uint32_t> adjLen;     // per flow slot
  std::span<const double> weight;            // per flow slot
  std::span<const double> rateCap;           // per flow slot (<= 0: uncapped)
};

/// A class problem compiled by SolverWorkspace::compileClasses: the part of
/// the solve that depends only on which classes take part.  Vectors keep
/// their capacity across recompiles, so a pooled instance stops allocating
/// once it has seen its largest class set.
struct CompiledClasses {
  /// The weight every class shares.
  double weight = 0.0;
  // Per class, in compiled order.
  std::vector<std::uint32_t> slot;       // the caller's class slot
  std::vector<double> rateCap;           // <= 0: uncapped
  std::vector<std::uint32_t> capped;     // the classes with rateCap > 0
  std::vector<std::uint32_t> adjOffset;  // into adjacency
  std::vector<std::uint32_t> adjLen;
  std::vector<std::uint32_t> adjacency;  // dense resource ids
  // Per dense resource.
  std::vector<std::uint32_t> resource;        // global resource index
  std::vector<std::uint32_t> resClassOffset;  // size + 1 entries, into resClasses
  std::vector<std::uint32_t> resClasses;      // classes crossing the resource
};

/// Reusable scratch state for progressive filling.  One workspace may be
/// used for any number of solves over problems of any size; internal arrays
/// grow monotonically and are reused, so repeated solves of a stable-sized
/// problem allocate nothing.
class SolverWorkspace {
 public:
  /// Computes the weighted max-min rates of `flows` (slot indices into the
  /// view's per-flow arrays), writing `rates[f]` for exactly those slots.
  /// The subset must be self-contained (a union of connected components):
  /// rates are computed as if no other flow existed.  Flows crossing a
  /// zero-capacity resource receive rate 0.  Returns the number of filling
  /// iterations.
  std::size_t solveSubset(const SolverView& view, std::span<const std::uint32_t> flows,
                          std::span<double> rates);

  /// Compiles the class problem of `classes` (slots of the view, all of one
  /// weight, each listed once) into `out`.  Only the view's adjacency,
  /// weight and rate caps are read; capacities and member counts are read
  /// by each solveCompiled.
  void compileClasses(const SolverView& view, std::span<const std::uint32_t> classes,
                      CompiledClasses& out);

  /// Fills a compiled class problem under the current `capacity` (per global
  /// resource) and `multiplicity` (per class slot, each > 0), writing
  /// `rates[slot]` for every compiled class; returns the iteration count.
  /// Each class's rate is the rate every one of its members receives from
  /// solveSubset over the expanded flows, bit for bit, in the same number
  /// of iterations.
  /// Optional `resourceCount[r]`: the total multiplicity of the classes
  /// crossing r.  When given and no resource of the problem is at zero
  /// capacity (so no class is dead), the solve reads the per-resource
  /// counts from it instead of accumulating them class by class.
  std::size_t solveCompiled(const CompiledClasses& problem, std::span<const double> capacity,
                            std::span<const std::uint32_t> multiplicity,
                            std::span<double> rates,
                            std::span<const std::uint32_t> resourceCount = {});

 private:
  void ensureResourceCapacity(std::size_t resourceCount);
  /// weightSums_[k] = k copies of `weight` summed left to right, for k in
  /// [0, count]; reused while the weight stays the same.
  void ensureWeightSums(double weight, std::uint32_t count);

  // Per-resource scratch, stamped per solve so nothing needs clearing.
  std::vector<std::uint64_t> resStamp_;
  std::vector<double> residual_;
  std::vector<double> activeWeight_;
  std::vector<std::uint32_t> activeCount_;
  std::vector<char> saturated_;
  std::uint64_t stamp_ = 0;

  // Per-flow walk: compact per-solve lists (reused capacity).
  std::vector<std::uint32_t> touchedRes_;
  std::vector<std::uint32_t> activeFlows_;

  // --- Class solve (compileClasses / solveCompiled; reused capacity) -----
  // Global resource index -> dense id, valid when resStamp_ == stamp_.
  std::vector<std::uint32_t> resDense_;
  // Per dense resource.
  std::vector<double> rCapacity_;
  std::vector<double> rResidual_;
  std::vector<double> rActiveWeight_;
  std::vector<std::uint32_t> rActiveCount_;
  std::vector<std::uint32_t> rFreezing_;   // class members frozen this iteration
  std::vector<std::uint32_t> saturating_;  // resources saturated this iteration
  std::vector<std::uint32_t> freezing_;    // resources with rFreezing_ > 0
  // Filling capped classes, the classes frozen this iteration, and per class
  // the stamp of the solve that froze it.
  std::vector<std::uint32_t> cappedList_;
  std::vector<std::uint32_t> frozenNow_;
  std::vector<std::uint64_t> cFrozen_;
  std::vector<double> weightSums_;
  double weightSumsOf_ = 0.0;
};

/// Computes the max-min fair allocation.
///
/// Preconditions: every flow crosses at least one resource; all resource
/// indices are in range; capacities are >= 0; weights are > 0.  Flows
/// through a zero-capacity resource receive rate 0.
SolverResult solveMaxMin(std::span<const SolverResource> resources,
                         std::span<const SolverFlow> flows);

}  // namespace beesim::sim
