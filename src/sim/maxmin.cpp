#include "sim/maxmin.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace beesim::sim {

namespace {
// Relative tolerance used to decide that a resource is saturated.  Rates are
// MiB/s magnitudes (1e0..1e5), so an absolute epsilon scaled to the capacity
// is robust.
constexpr double kEps = 1e-9;

constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void SolverWorkspace::ensureResourceCapacity(std::size_t resourceCount) {
  if (resStamp_.size() >= resourceCount) return;
  resStamp_.resize(resourceCount, 0);
  residual_.resize(resourceCount, 0.0);
  activeWeight_.resize(resourceCount, 0.0);
  activeCount_.resize(resourceCount, 0);
  saturated_.resize(resourceCount, 0);
  resDense_.resize(resourceCount, 0);
}

void SolverWorkspace::ensureWeightSums(double weight, std::uint32_t count) {
  if (weightSums_.empty() || weightSumsOf_ != weight) {
    weightSums_.assign(1, 0.0);
    weightSumsOf_ = weight;
  }
  while (weightSums_.size() <= count) weightSums_.push_back(weightSums_.back() + weight);
}

std::size_t SolverWorkspace::solveSubset(const SolverView& view,
                                         std::span<const std::uint32_t> flows,
                                         std::span<double> rates) {
  if (flows.empty()) return 0;
  ensureResourceCapacity(view.capacity.size());
  ++stamp_;

  // Initialize the touched-resource scratch exactly once per resource: the
  // stamp makes the arrays self-clearing, so solve cost scales with the
  // subset, not with the global resource count.
  touchedRes_.clear();
  for (const auto f : flows) {
    BEESIM_ASSERT(view.adjLen[f] > 0, "every flow must cross >= 1 resource");
    BEESIM_ASSERT(view.weight[f] > 0.0, "flow weight must be positive");
    const auto* adj = view.adjacency.data() + view.adjOffset[f];
    for (std::uint32_t i = 0; i < view.adjLen[f]; ++i) {
      const auto r = adj[i];
      BEESIM_ASSERT(r < view.capacity.size(), "flow references an unknown resource");
      if (resStamp_[r] != stamp_) {
        resStamp_[r] = stamp_;
        touchedRes_.push_back(r);
        residual_[r] = view.capacity[r];
        activeWeight_[r] = 0.0;
        activeCount_[r] = 0;
        saturated_[r] = 0;
      }
    }
  }

  // activeWeight_[r]: total weight of still-filling flows crossing r.
  // activeCount_[r] tracks the same set exactly; when it reaches zero the
  // weight is reset to exactly 0.0 (repeated subtraction of doubles can
  // leave a ~1e-16 ghost that would stall the filling with delta == 0).
  activeFlows_.clear();
  for (const auto f : flows) {
    const auto* adj = view.adjacency.data() + view.adjOffset[f];
    bool dead = false;
    for (std::uint32_t i = 0; i < view.adjLen[f]; ++i) {
      if (view.capacity[adj[i]] <= 0.0) dead = true;
    }
    rates[f] = 0.0;
    if (dead) continue;  // rate stays 0
    for (std::uint32_t i = 0; i < view.adjLen[f]; ++i) {
      activeWeight_[adj[i]] += view.weight[f];
      ++activeCount_[adj[i]];
    }
    activeFlows_.push_back(f);
  }

  std::size_t iterations = 0;
  while (!activeFlows_.empty()) {
    ++iterations;

    // The largest uniform *normalized* increment (rate per unit weight)
    // every active flow can absorb.
    double delta = kInf;
    for (const auto r : touchedRes_) {
      if (activeWeight_[r] <= 0.0) continue;
      delta = std::min(delta, residual_[r] / activeWeight_[r]);
    }
    for (const auto f : activeFlows_) {
      if (view.rateCap[f] <= 0.0) continue;
      delta = std::min(delta, (view.rateCap[f] - rates[f]) / view.weight[f]);
    }
    BEESIM_ASSERT(delta < kInf, "progressive filling found no bottleneck");
    delta = std::max(delta, 0.0);

    // Apply the increment.
    for (const auto f : activeFlows_) rates[f] += delta * view.weight[f];
    for (const auto r : touchedRes_) residual_[r] -= delta * activeWeight_[r];

    // Freeze flows bottlenecked by a saturated resource or by their own cap.
    for (const auto r : touchedRes_) {
      if (activeWeight_[r] > 0.0 &&
          residual_[r] <= kEps * std::max(1.0, view.capacity[r])) {
        saturated_[r] = 1;
        residual_[r] = std::max(residual_[r], 0.0);
      }
    }
    std::size_t newlyFrozen = 0;
    std::size_t i = 0;
    while (i < activeFlows_.size()) {
      const auto f = activeFlows_[i];
      const auto* adj = view.adjacency.data() + view.adjOffset[f];
      bool stop = false;
      for (std::uint32_t k = 0; k < view.adjLen[f]; ++k) {
        if (saturated_[adj[k]]) {
          stop = true;
          break;
        }
      }
      if (!stop && view.rateCap[f] > 0.0 &&
          rates[f] >= view.rateCap[f] - kEps * std::max(1.0, view.rateCap[f])) {
        stop = true;
      }
      if (stop) {
        ++newlyFrozen;
        for (std::uint32_t k = 0; k < view.adjLen[f]; ++k) {
          const auto r = adj[k];
          activeWeight_[r] -= view.weight[f];
          if (--activeCount_[r] == 0) activeWeight_[r] = 0.0;
        }
        activeFlows_[i] = activeFlows_.back();
        activeFlows_.pop_back();
      } else {
        ++i;
      }
    }
    // Progress guarantee: every iteration freezes at least one flow (delta was
    // chosen as the tightest constraint).
    BEESIM_ASSERT(newlyFrozen > 0, "progressive filling made no progress");
  }

  return iterations;
}

void SolverWorkspace::compileClasses(const SolverView& view,
                                     std::span<const std::uint32_t> classes,
                                     CompiledClasses& out) {
  ensureResourceCapacity(view.capacity.size());
  ++stamp_;
  out.weight = classes.empty() ? 0.0 : view.weight[classes.front()];
  out.slot.clear();
  out.rateCap.clear();
  out.capped.clear();
  out.adjOffset.clear();
  out.adjLen.clear();
  out.adjacency.clear();
  out.resource.clear();
  // Dense resource ids in first-touch order (the stamp makes resDense_
  // self-clearing).
  for (const auto c : classes) {
    BEESIM_ASSERT(view.adjLen[c] > 0, "every flow must cross >= 1 resource");
    BEESIM_ASSERT(view.weight[c] > 0.0, "flow weight must be positive");
    BEESIM_ASSERT(view.weight[c] == out.weight, "flow classes of one solve must share a weight");
    const auto* adj = view.adjacency.data() + view.adjOffset[c];
    if (view.rateCap[c] > 0.0) out.capped.push_back(static_cast<std::uint32_t>(out.slot.size()));
    out.slot.push_back(c);
    out.rateCap.push_back(view.rateCap[c]);
    out.adjOffset.push_back(static_cast<std::uint32_t>(out.adjacency.size()));
    out.adjLen.push_back(view.adjLen[c]);
    for (std::uint32_t i = 0; i < view.adjLen[c]; ++i) {
      const auto r = adj[i];
      BEESIM_ASSERT(r < view.capacity.size(), "flow references an unknown resource");
      if (resStamp_[r] != stamp_) {
        resStamp_[r] = stamp_;
        resDense_[r] = static_cast<std::uint32_t>(out.resource.size());
        out.resource.push_back(r);
      }
      out.adjacency.push_back(resDense_[r]);
    }
  }
  // Transpose: the classes crossing each resource, so a saturation visits
  // only the classes it freezes.  Counting sort: offsets advance while
  // filling and are shifted back afterwards.
  const std::size_t m = out.resource.size();
  out.resClassOffset.assign(m + 1, 0);
  for (const auto d : out.adjacency) ++out.resClassOffset[d + 1];
  for (std::size_t d = 0; d < m; ++d) out.resClassOffset[d + 1] += out.resClassOffset[d];
  out.resClasses.resize(out.adjacency.size());
  for (std::uint32_t j = 0; j < out.slot.size(); ++j) {
    for (std::uint32_t k = 0; k < out.adjLen[j]; ++k) {
      out.resClasses[out.resClassOffset[out.adjacency[out.adjOffset[j] + k]]++] = j;
    }
  }
  for (std::size_t d = m; d > 0; --d) out.resClassOffset[d] = out.resClassOffset[d - 1];
  out.resClassOffset[0] = 0;
}

std::size_t SolverWorkspace::solveCompiled(const CompiledClasses& problem,
                                           std::span<const double> capacity,
                                           std::span<const std::uint32_t> multiplicity,
                                           std::span<double> rates,
                                           std::span<const std::uint32_t> resourceCount) {
  const std::size_t n = problem.slot.size();
  const std::size_t m = problem.resource.size();
  if (n == 0) return 0;
  const double w = problem.weight;
  // Frozen classes carry this solve's stamp; a class is filling otherwise.
  const std::uint64_t frozenMark = ++stamp_;
  cFrozen_.resize(std::max(cFrozen_.size(), n), 0);

  // Fresh capacities.  A class crossing a zero-capacity resource is dead:
  // rate 0, no weight anywhere.  Without dead classes a resource's member
  // count is the caller's per-resource count, if it keeps one.
  bool anyZero = false;
  rCapacity_.resize(m);
  rResidual_.resize(m);
  rActiveWeight_.resize(m);
  rActiveCount_.resize(m);
  rFreezing_.assign(m, 0);
  freezing_.clear();
  for (std::size_t d = 0; d < m; ++d) {
    const double cap = capacity[problem.resource[d]];
    rCapacity_[d] = cap;
    rResidual_[d] = cap;
    if (cap <= 0.0) anyZero = true;
  }
  const bool countClasses = anyZero || resourceCount.empty();
  for (std::size_t d = 0; d < m; ++d) {
    rActiveCount_[d] = countClasses ? 0 : resourceCount[problem.resource[d]];
  }
  std::size_t active = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto mult = multiplicity[problem.slot[j]];
    BEESIM_ASSERT(mult > 0, "a flow class needs at least one member");
    const auto* adj = problem.adjacency.data() + problem.adjOffset[j];
    bool dead = false;
    if (anyZero) {
      for (std::uint32_t k = 0; k < problem.adjLen[j]; ++k) {
        if (rCapacity_[adj[k]] <= 0.0) dead = true;
      }
    }
    if (dead) {
      cFrozen_[j] = frozenMark;
      rates[problem.slot[j]] = 0.0;
      continue;
    }
    ++active;
    if (countClasses) {
      for (std::uint32_t k = 0; k < problem.adjLen[j]; ++k) rActiveCount_[adj[k]] += mult;
    }
  }
  cappedList_.clear();
  for (const auto j : problem.capped) {
    if (cFrozen_[j] != frozenMark) cappedList_.push_back(j);
  }
  // Active weights from the sequential-sum table (header comment).
  std::uint32_t maxCount = 0;
  for (std::size_t d = 0; d < m; ++d) maxCount = std::max(maxCount, rActiveCount_[d]);
  ensureWeightSums(w, maxCount);
  for (std::size_t d = 0; d < m; ++d) rActiveWeight_[d] = weightSums_[rActiveCount_[d]];

  // Every filling class holds the same rate, `level`: it started at 0.0
  // and received the same `+= delta * w` as every other.  A class takes
  // the level as its rate when it freezes.
  double level = 0.0;
  const auto freeze = [&](std::uint32_t j) {
    --active;
    cFrozen_[j] = frozenMark;
    rates[problem.slot[j]] = level;
    frozenNow_.push_back(j);
  };

  std::size_t iterations = 0;
  while (active > 0) {
    ++iterations;

    // Same delta, increment and saturation arithmetic as the per-flow
    // solve (see solveSubset), with the level standing in for every
    // filling class's rate; only filling capped classes bound delta.
    double delta = kInf;
    for (std::size_t d = 0; d < m; ++d) {
      const double aw = rActiveWeight_[d];
      const double c = aw > 0.0 ? rResidual_[d] / aw : kInf;
      if (c < delta) delta = c;
    }
    for (const auto j : cappedList_) {
      const double c = (problem.rateCap[j] - level) / w;
      if (c < delta) delta = c;
    }
    BEESIM_ASSERT(delta < kInf, "progressive filling found no bottleneck");
    delta = std::max(delta, 0.0);

    level += delta * w;
    for (std::size_t d = 0; d < m; ++d) rResidual_[d] -= delta * rActiveWeight_[d];

    // A resource saturates at most once: every class crossing it freezes in
    // the same iteration, which drops its active weight to exactly 0.0.  So
    // visiting the classes of the newly saturated resources freezes exactly
    // the classes the per-flow scan over saturation flags would.
    saturating_.clear();
    for (std::size_t d = 0; d < m; ++d) {
      if (rActiveWeight_[d] > 0.0 &&
          rResidual_[d] <= kEps * std::max(1.0, rCapacity_[d])) {
        rResidual_[d] = std::max(rResidual_[d], 0.0);
        saturating_.push_back(static_cast<std::uint32_t>(d));
      }
    }
    frozenNow_.clear();
    for (const auto d : saturating_) {
      for (auto k = problem.resClassOffset[d]; k < problem.resClassOffset[d + 1]; ++k) {
        const auto j = problem.resClasses[k];
        if (cFrozen_[j] != frozenMark) freeze(j);
      }
    }
    for (std::size_t i = 0; i < cappedList_.size();) {
      const auto j = cappedList_[i];
      const double cap = problem.rateCap[j];
      if (cFrozen_[j] != frozenMark && level >= cap - kEps * std::max(1.0, cap)) freeze(j);
      if (cFrozen_[j] == frozenMark) {
        cappedList_[i] = cappedList_.back();
        cappedList_.pop_back();
      } else {
        ++i;
      }
    }
    BEESIM_ASSERT(!frozenNow_.empty(), "progressive filling made no progress");
    if (active == 0) break;  // no weight left to release

    // Release the frozen members' weight: one subtraction of w per member,
    // as the expanded flows would do (all on a resource are the same w, so
    // batching them per resource keeps the result), or exactly 0.0 once no
    // member is left -- skipping the chain entirely.
    for (const auto j : frozenNow_) {
      const auto mult = multiplicity[problem.slot[j]];
      const auto* adj = problem.adjacency.data() + problem.adjOffset[j];
      for (std::uint32_t k = 0; k < problem.adjLen[j]; ++k) {
        if (rFreezing_[adj[k]] == 0) freezing_.push_back(adj[k]);
        rFreezing_[adj[k]] += mult;
      }
    }
    for (const auto d : freezing_) {
      const auto frozen = rFreezing_[d];
      rFreezing_[d] = 0;
      rActiveCount_[d] -= frozen;
      if (rActiveCount_[d] == 0) {
        rActiveWeight_[d] = 0.0;
      } else {
        for (std::uint32_t c = 0; c < frozen; ++c) rActiveWeight_[d] -= w;
      }
    }
    freezing_.clear();
  }
  return iterations;
}

SolverResult solveMaxMin(std::span<const SolverResource> resources,
                         std::span<const SolverFlow> flows) {
  const std::size_t nRes = resources.size();
  const std::size_t nFlows = flows.size();

  SolverResult result;
  result.rates.assign(nFlows, 0.0);
  if (nFlows == 0) return result;

  // Flatten to the CSR view the workspace core consumes.  This legacy entry
  // point allocates per call; hot paths hold a workspace and flat arrays of
  // their own (see FluidSimulator).
  std::vector<double> capacity(nRes);
  for (std::size_t r = 0; r < nRes; ++r) {
    BEESIM_ASSERT(resources[r].capacity >= 0.0, "resource capacity must be >= 0");
    capacity[r] = resources[r].capacity;
  }
  std::vector<std::uint32_t> adjacency;
  std::vector<std::uint32_t> adjOffset(nFlows);
  std::vector<std::uint32_t> adjLen(nFlows);
  std::vector<double> weight(nFlows);
  std::vector<double> rateCap(nFlows);
  std::vector<std::uint32_t> subset(nFlows);
  for (std::size_t f = 0; f < nFlows; ++f) {
    adjOffset[f] = static_cast<std::uint32_t>(adjacency.size());
    adjLen[f] = static_cast<std::uint32_t>(flows[f].resources.size());
    adjacency.insert(adjacency.end(), flows[f].resources.begin(), flows[f].resources.end());
    weight[f] = flows[f].weight;
    rateCap[f] = flows[f].rateCap;
    subset[f] = static_cast<std::uint32_t>(f);
  }

  SolverWorkspace workspace;
  result.iterations = workspace.solveSubset(
      SolverView{capacity, adjacency, adjOffset, adjLen, weight, rateCap}, subset,
      result.rates);
  return result;
}

}  // namespace beesim::sim
