#include "sim/maxmin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace beesim::sim {
namespace {

SolverFlow flow(std::vector<std::uint32_t> resources, double cap = 0.0) {
  SolverFlow f;
  f.resources = std::move(resources);
  f.rateCap = cap;
  return f;
}

TEST(MaxMin, SingleFlowGetsFullCapacity) {
  const std::vector<SolverResource> res{{100.0}};
  const std::vector<SolverFlow> flows{flow({0})};
  const auto result = solveMaxMin(res, flows);
  ASSERT_EQ(result.rates.size(), 1u);
  EXPECT_NEAR(result.rates[0], 100.0, 1e-9);
}

TEST(MaxMin, EqualFlowsShareEqually) {
  const std::vector<SolverResource> res{{90.0}};
  const std::vector<SolverFlow> flows{flow({0}), flow({0}), flow({0})};
  const auto result = solveMaxMin(res, flows);
  for (const auto rate : result.rates) EXPECT_NEAR(rate, 30.0, 1e-9);
}

TEST(MaxMin, BottleneckedFlowReleasesCapacityToOthers) {
  // Flow 0 crosses a narrow private link; flows 1-2 share the wide link with
  // it.  Classic max-min: flow 0 gets 10, the rest split the remainder.
  const std::vector<SolverResource> res{{10.0}, {100.0}};
  const std::vector<SolverFlow> flows{flow({0, 1}), flow({1}), flow({1})};
  const auto result = solveMaxMin(res, flows);
  EXPECT_NEAR(result.rates[0], 10.0, 1e-9);
  EXPECT_NEAR(result.rates[1], 45.0, 1e-9);
  EXPECT_NEAR(result.rates[2], 45.0, 1e-9);
}

TEST(MaxMin, WeightsScaleTheFairShare) {
  // Weighted max-min: a weight-3 flow gets 3x the rate of a weight-1 flow
  // on a shared bottleneck.
  const std::vector<SolverResource> res{{80.0}};
  std::vector<SolverFlow> flows{flow({0}), flow({0})};
  flows[0].weight = 3.0;
  flows[1].weight = 1.0;
  const auto result = solveMaxMin(res, flows);
  EXPECT_NEAR(result.rates[0], 60.0, 1e-9);
  EXPECT_NEAR(result.rates[1], 20.0, 1e-9);
}

TEST(MaxMin, WeightedBottleneckReleasesCapacity) {
  // The heavy flow is capped on its private link; the remainder is split by
  // weight among the others.
  const std::vector<SolverResource> res{{10.0}, {100.0}};
  std::vector<SolverFlow> flows{flow({0, 1}), flow({1}), flow({1})};
  flows[0].weight = 10.0;
  flows[1].weight = 2.0;
  flows[2].weight = 1.0;
  const auto result = solveMaxMin(res, flows);
  EXPECT_NEAR(result.rates[0], 10.0, 1e-9);
  EXPECT_NEAR(result.rates[1], 60.0, 1e-9);
  EXPECT_NEAR(result.rates[2], 30.0, 1e-9);
}

TEST(MaxMin, NonPositiveWeightThrows) {
  const std::vector<SolverResource> res{{10.0}};
  std::vector<SolverFlow> flows{flow({0})};
  flows[0].weight = 0.0;
  EXPECT_THROW(solveMaxMin(res, flows), util::ContractError);
}

TEST(MaxMin, RateCapFreezesFlow) {
  const std::vector<SolverResource> res{{100.0}};
  const std::vector<SolverFlow> flows{flow({0}, 20.0), flow({0})};
  const auto result = solveMaxMin(res, flows);
  EXPECT_NEAR(result.rates[0], 20.0, 1e-9);
  EXPECT_NEAR(result.rates[1], 80.0, 1e-9);
}

TEST(MaxMin, ZeroCapacityResourceKillsItsFlows) {
  const std::vector<SolverResource> res{{0.0}, {100.0}};
  const std::vector<SolverFlow> flows{flow({0, 1}), flow({1})};
  const auto result = solveMaxMin(res, flows);
  EXPECT_DOUBLE_EQ(result.rates[0], 0.0);
  EXPECT_NEAR(result.rates[1], 100.0, 1e-9);
}

TEST(MaxMin, EmptyFlowSetIsFine) {
  const std::vector<SolverResource> res{{10.0}};
  const auto result = solveMaxMin(res, std::vector<SolverFlow>{});
  EXPECT_TRUE(result.rates.empty());
}

TEST(MaxMin, FlowWithoutResourcesThrows) {
  const std::vector<SolverResource> res{{10.0}};
  const std::vector<SolverFlow> flows{flow({})};
  EXPECT_THROW(solveMaxMin(res, flows), util::ContractError);
}

TEST(MaxMin, UnknownResourceIndexThrows) {
  const std::vector<SolverResource> res{{10.0}};
  const std::vector<SolverFlow> flows{flow({3})};
  EXPECT_THROW(solveMaxMin(res, flows), util::ContractError);
}

TEST(MaxMin, ScenarioOneShape) {
  // The paper's Scenario-1 core effect: two server links of capacity B; an
  // allocation (1,3) pushes 3/4 of the flows through one link.  8 clients x
  // 4 targets = 32 flows; target 0 on server A, targets 1-3 on server B.
  constexpr double kLinkB = 1100.0;
  const std::vector<SolverResource> res{{kLinkB}, {kLinkB}};
  std::vector<SolverFlow> flows;
  for (int client = 0; client < 8; ++client) {
    for (int target = 0; target < 4; ++target) {
      flows.push_back(flow({target == 0 ? 0u : 1u}));
    }
  }
  const auto result = solveMaxMin(res, flows);
  // Aggregate rate: the hot link saturates at B; the cold link carries its
  // 8 single-target flows at their fair share of B.
  double total = 0.0;
  for (const auto r : result.rates) total += r;
  EXPECT_NEAR(total, 2.0 * kLinkB, 1e-6);
  // But the *balanced* data split means the effective bandwidth of an equal-
  // bytes-per-target write is dictated by the hot link: each hot flow gets
  // B/24, each cold flow B/8, i.e. the cold targets finish 3x earlier.
  EXPECT_NEAR(result.rates[0], kLinkB / 8.0, 1e-6);   // cold
  EXPECT_NEAR(result.rates[1], kLinkB / 24.0, 1e-6);  // hot
}

/// Property suite on random instances: the solution must be feasible and
/// max-min optimal (every flow is blocked by a saturated resource where it
/// has the maximal rate, or by its own cap).
class MaxMinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinPropertyTest, FeasibleAndMaxMinOptimal) {
  util::Rng rng(1000 + GetParam());
  const auto nRes = static_cast<std::size_t>(rng.uniformInt(1, 8));
  const auto nFlows = static_cast<std::size_t>(rng.uniformInt(1, 40));

  std::vector<SolverResource> res(nRes);
  for (auto& r : res) r.capacity = rng.uniform(10.0, 1000.0);

  std::vector<SolverFlow> flows(nFlows);
  for (auto& f : flows) {
    const auto pathLen = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<std::int64_t>(nRes)));
    for (const auto r : rng.sampleWithoutReplacement(nRes, pathLen)) {
      f.resources.push_back(static_cast<std::uint32_t>(r));
    }
    if (rng.bernoulli(0.3)) f.rateCap = rng.uniform(1.0, 300.0);
    f.weight = rng.uniform(0.5, 4.0);
  }

  const auto result = solveMaxMin(res, flows);
  constexpr double kTol = 1e-6;

  // Feasibility: no resource over capacity, no cap exceeded.
  std::vector<double> used(nRes, 0.0);
  for (std::size_t f = 0; f < nFlows; ++f) {
    EXPECT_GE(result.rates[f], -kTol);
    if (flows[f].rateCap > 0.0) {
      EXPECT_LE(result.rates[f], flows[f].rateCap + kTol);
    }
    for (const auto r : flows[f].resources) used[r] += result.rates[f];
  }
  for (std::size_t r = 0; r < nRes; ++r) EXPECT_LE(used[r], res[r].capacity + kTol);

  // Max-min optimality: every flow is limited by its cap or by a saturated
  // resource on which no co-located flow has a strictly larger *normalized*
  // rate (rate divided by weight).
  for (std::size_t f = 0; f < nFlows; ++f) {
    if (flows[f].rateCap > 0.0 && result.rates[f] >= flows[f].rateCap - kTol) continue;
    bool blocked = false;
    const double normF = result.rates[f] / flows[f].weight;
    for (const auto r : flows[f].resources) {
      if (used[r] >= res[r].capacity - kTol * std::max(1.0, res[r].capacity)) {
        bool isMaxOnResource = true;
        for (std::size_t g = 0; g < nFlows; ++g) {
          if (g == f) continue;
          const auto& gres = flows[g].resources;
          if (std::find(gres.begin(), gres.end(), r) != gres.end() &&
              result.rates[g] / flows[g].weight > normF + kTol) {
            // A bigger flow on the same saturated resource is fine only if
            // that flow is itself frozen elsewhere -- but then r is not
            // flow f's max-min bottleneck.  Keep searching.
            isMaxOnResource = false;
            break;
          }
        }
        if (isMaxOnResource) {
          blocked = true;
          break;
        }
      }
    }
    EXPECT_TRUE(blocked) << "flow " << f << " is not max-min blocked";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MaxMinPropertyTest, ::testing::Range(0, 25));

// --- SoA fast path vs reference walk -----------------------------------

/// A random CSR problem plus the flat arrays SolverWorkspace consumes.
struct CsrProblem {
  std::vector<double> capacity;
  std::vector<std::uint32_t> adjacency;
  std::vector<std::uint32_t> adjOffset;
  std::vector<std::uint32_t> adjLen;
  std::vector<double> weight;
  std::vector<double> rateCap;
  std::vector<std::uint32_t> subset;

  SolverView view() const {
    return SolverView{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  }
};

CsrProblem randomCsrProblem(std::uint64_t seed) {
  util::Rng rng(seed);
  CsrProblem p;
  const auto nRes = static_cast<std::size_t>(rng.uniformInt(1, 10));
  const auto nFlows = static_cast<std::size_t>(rng.uniformInt(1, 48));
  for (std::size_t r = 0; r < nRes; ++r) {
    // ~15% dead resources so the degenerate path is exercised routinely.
    p.capacity.push_back(rng.bernoulli(0.15) ? 0.0 : rng.uniform(10.0, 1000.0));
  }
  for (std::size_t f = 0; f < nFlows; ++f) {
    p.adjOffset.push_back(static_cast<std::uint32_t>(p.adjacency.size()));
    const auto pathLen = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<std::int64_t>(nRes)));
    p.adjLen.push_back(static_cast<std::uint32_t>(pathLen));
    for (const auto r : rng.sampleWithoutReplacement(nRes, pathLen)) {
      p.adjacency.push_back(static_cast<std::uint32_t>(r));
    }
    p.weight.push_back(rng.uniform(0.5, 4.0));
    p.rateCap.push_back(rng.bernoulli(0.3) ? rng.uniform(1.0, 300.0) : 0.0);
    p.subset.push_back(static_cast<std::uint32_t>(f));
  }
  return p;
}

TEST(SolverSoA, MatchesReferenceBitwiseOnRandomProblems) {
  // The SoA compaction performs the same floating-point operations in the
  // same order as the reference walk (weights accumulate in flow-then-
  // adjacency order, min over delta candidates is order-independent, frozen
  // flows add delta * 0.0), so the two paths must agree bit for bit -- not
  // within a tolerance.  This equality is what lets ε = 0 runs keep their
  // golden CSV bytes across the layout change.
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    const auto p = randomCsrProblem(seed);
    SolverWorkspace fast;
    SolverWorkspace reference;
    std::vector<double> fastRates(p.subset.size(), -1.0);
    std::vector<double> referenceRates(p.subset.size(), -1.0);
    const auto fastIters = fast.solveSubset(p.view(), p.subset, fastRates);
    const auto refIters =
        reference.solveSubsetReference(p.view(), p.subset, referenceRates);
    EXPECT_EQ(fastIters, refIters) << "seed " << seed;
    for (std::size_t f = 0; f < fastRates.size(); ++f) {
      EXPECT_EQ(fastRates[f], referenceRates[f])
          << "seed " << seed << " flow " << f << " diverged";
    }
  }
}

TEST(SolverSoA, WorkspaceReuseDoesNotLeakStateAcrossSolves) {
  // One workspace solving many unrelated problems back to back must give the
  // same answers as fresh workspaces (the stamp discipline, not clearing,
  // isolates solves).
  SolverWorkspace reused;
  for (std::uint64_t seed = 700; seed < 715; ++seed) {
    const auto p = randomCsrProblem(seed);
    std::vector<double> reusedRates(p.subset.size(), 0.0);
    std::vector<double> freshRates(p.subset.size(), 0.0);
    reused.solveSubset(p.view(), p.subset, reusedRates);
    SolverWorkspace fresh;
    fresh.solveSubset(p.view(), p.subset, freshRates);
    EXPECT_EQ(reusedRates, freshRates) << "seed " << seed;
  }
}

TEST(SolverSoA, ZeroCapacityFlowsAreDeadAndReleaseTheirShare) {
  // Degenerate-input semantics (documented on solveSubset): a flow crossing
  // a zero-capacity resource gets rate 0 and contributes no weight anywhere,
  // so survivors split the healthy capacity as if the dead flow were absent.
  const std::vector<double> capacity{120.0, 0.0};
  const std::vector<std::uint32_t> adjacency{0, 0, 1, 0};
  const std::vector<std::uint32_t> adjOffset{0, 1, 3};
  const std::vector<std::uint32_t> adjLen{1, 2, 1};
  const std::vector<double> weight{1.0, 5.0, 2.0};
  const std::vector<double> rateCap{0.0, 0.0, 0.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  const std::vector<std::uint32_t> subset{0, 1, 2};
  std::vector<double> rates(3, -1.0);
  SolverWorkspace workspace;
  workspace.solveSubset(view, subset, rates);
  EXPECT_DOUBLE_EQ(rates[1], 0.0) << "dead flow (crosses the 0-capacity link)";
  EXPECT_NEAR(rates[0], 40.0, 1e-9) << "1:2 weighted split of 120";
  EXPECT_NEAR(rates[2], 80.0, 1e-9);
}

TEST(SolverSoA, EmptySubsetSolvesNothing) {
  const std::vector<double> capacity{100.0};
  const std::vector<std::uint32_t> adjacency{0};
  const std::vector<std::uint32_t> adjOffset{0};
  const std::vector<std::uint32_t> adjLen{1};
  const std::vector<double> weight{1.0};
  const std::vector<double> rateCap{0.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  SolverWorkspace workspace;
  std::vector<double> rates{-1.0};
  EXPECT_EQ(workspace.solveSubset(view, {}, rates), 0u);
  EXPECT_DOUBLE_EQ(rates[0], -1.0) << "rates outside the subset are untouched";
}

TEST(SolverSoA, AllDeadSubsetTerminatesWithZeroRates) {
  const std::vector<double> capacity{0.0};
  const std::vector<std::uint32_t> adjacency{0, 0};
  const std::vector<std::uint32_t> adjOffset{0, 1};
  const std::vector<std::uint32_t> adjLen{1, 1};
  const std::vector<double> weight{1.0, 2.0};
  const std::vector<double> rateCap{0.0, 50.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  const std::vector<std::uint32_t> subset{0, 1};
  std::vector<double> rates(2, -1.0);
  SolverWorkspace workspace;
  EXPECT_EQ(workspace.solveSubset(view, subset, rates), 0u);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

TEST(SolverSoA, InvalidFlowsAreRejected) {
  const std::vector<double> capacity{100.0};
  const std::vector<std::uint32_t> adjacency{0, 7};
  const std::vector<std::uint32_t> adjOffset{0, 1};
  const std::vector<std::uint32_t> adjLen{0, 1};  // slot 0: empty path
  const std::vector<double> weight{1.0, 1.0};
  const std::vector<double> rateCap{0.0, 0.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  SolverWorkspace workspace;
  std::vector<double> rates(2, 0.0);
  const std::vector<std::uint32_t> emptyPath{0};
  EXPECT_THROW(workspace.solveSubset(view, emptyPath, rates), util::ContractError);
  const std::vector<std::uint32_t> unknownRes{1};  // adjacency says resource 7
  EXPECT_THROW(workspace.solveSubset(view, unknownRes, rates), util::ContractError);
}

// --- Flow classes (multiplicity) vs the expanded reference walk ----------

/// A random problem of flow classes sharing one non-dyadic weight, plus the
/// same problem expanded into one flow per member (members of different
/// classes interleaved, as a component's flow list interleaves ranks).
struct ClassProblem {
  CsrProblem classes;  // one slot per class
  std::vector<std::uint32_t> multiplicity;
  CsrProblem expanded;  // one slot per member flow
  std::vector<std::uint32_t> classOfFlow;

  SolverView classView() const {
    auto view = classes.view();
    view.multiplicity = multiplicity;
    return view;
  }
};

void expandClasses(ClassProblem& p, util::Rng& rng);

ClassProblem randomClassProblem(std::uint64_t seed) {
  util::Rng rng(seed);
  ClassProblem p;
  constexpr double kWeight = 0.93 / 3.0;
  // Two or three disconnected resource groups, so the subset is a union of
  // components; ~15% zero-capacity resources.
  const auto groups = static_cast<std::size_t>(rng.uniformInt(2, 3));
  std::vector<std::size_t> groupStart;
  for (std::size_t g = 0; g < groups; ++g) {
    groupStart.push_back(p.classes.capacity.size());
    const auto nRes = static_cast<std::size_t>(rng.uniformInt(1, 6));
    for (std::size_t r = 0; r < nRes; ++r) {
      p.classes.capacity.push_back(rng.bernoulli(0.15) ? 0.0 : rng.uniform(10.0, 1000.0));
    }
  }
  groupStart.push_back(p.classes.capacity.size());
  const auto nClasses = static_cast<std::size_t>(rng.uniformInt(1, 24));
  for (std::size_t c = 0; c < nClasses; ++c) {
    const auto g = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(groups) - 1));
    const std::size_t nRes = groupStart[g + 1] - groupStart[g];
    const auto pathLen =
        static_cast<std::size_t>(rng.uniformInt(1, static_cast<std::int64_t>(nRes)));
    p.classes.adjOffset.push_back(static_cast<std::uint32_t>(p.classes.adjacency.size()));
    p.classes.adjLen.push_back(static_cast<std::uint32_t>(pathLen));
    for (const auto r : rng.sampleWithoutReplacement(nRes, pathLen)) {
      p.classes.adjacency.push_back(static_cast<std::uint32_t>(groupStart[g] + r));
    }
    p.classes.weight.push_back(kWeight);
    p.classes.rateCap.push_back(rng.bernoulli(0.3) ? rng.uniform(1.0, 300.0) : 0.0);
    p.classes.subset.push_back(static_cast<std::uint32_t>(c));
    p.multiplicity.push_back(static_cast<std::uint32_t>(rng.uniformInt(1, 9)));
  }
  expandClasses(p, rng);
  return p;
}

/// (Re)builds p.expanded and p.classOfFlow from p.classes and
/// p.multiplicity.
void expandClasses(ClassProblem& p, util::Rng& rng) {
  p.classOfFlow.clear();
  p.expanded = CsrProblem{};
  for (std::size_t c = 0; c < p.multiplicity.size(); ++c) {
    for (std::uint32_t k = 0; k < p.multiplicity[c]; ++k) {
      p.classOfFlow.push_back(static_cast<std::uint32_t>(c));
    }
  }
  rng.shuffle(p.classOfFlow);
  p.expanded.capacity = p.classes.capacity;
  for (std::size_t f = 0; f < p.classOfFlow.size(); ++f) {
    const auto c = p.classOfFlow[f];
    p.expanded.adjOffset.push_back(static_cast<std::uint32_t>(p.expanded.adjacency.size()));
    p.expanded.adjLen.push_back(p.classes.adjLen[c]);
    const auto* path = p.classes.adjacency.data() + p.classes.adjOffset[c];
    p.expanded.adjacency.insert(p.expanded.adjacency.end(), path, path + p.classes.adjLen[c]);
    p.expanded.weight.push_back(p.classes.weight[c]);
    p.expanded.rateCap.push_back(p.classes.rateCap[c]);
    p.expanded.subset.push_back(static_cast<std::uint32_t>(f));
  }
}

TEST(SolverSoA, ClassSolveMatchesExpandedReferenceBitwise) {
  // A class with multiplicity m must receive exactly the rate each of its m
  // expanded member flows gets from the per-flow reference walk -- bit for
  // bit and in the same number of filling iterations.  The weight 0.93/3 is
  // not dyadic, so sums of its copies round: the class path must rebuild
  // every resource's active weight by the same sequence of additions (and
  // subtractions on freeze) as the expanded flows.
  std::size_t aggregated = 0;
  for (std::uint64_t seed = 900; seed < 1000; ++seed) {
    const auto p = randomClassProblem(seed);
    SolverWorkspace classWorkspace;
    SolverWorkspace reference;
    std::vector<double> classRates(p.multiplicity.size(), -1.0);
    std::vector<double> flowRates(p.classOfFlow.size(), -1.0);
    const auto classIters = classWorkspace.solveSubset(p.classView(), p.classes.subset, classRates);
    const auto refIters =
        reference.solveSubsetReference(p.expanded.view(), p.expanded.subset, flowRates);
    EXPECT_EQ(classIters, refIters) << "seed " << seed;
    for (std::size_t f = 0; f < flowRates.size(); ++f) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(classRates[p.classOfFlow[f]]),
                std::bit_cast<std::uint64_t>(flowRates[f]))
          << "seed " << seed << " flow " << f << " (class " << p.classOfFlow[f] << ")";
    }
    if (p.classOfFlow.size() > p.multiplicity.size()) ++aggregated;
  }
  EXPECT_GT(aggregated, 90u) << "most instances must actually aggregate flows";
}

TEST(SolverSoA, CompiledClassesResolveMatchesExpandedReferenceBitwise) {
  // One compiled class problem re-solved under fresh capacities and member
  // counts -- what a fluid component does between class arrivals and
  // departures -- must give every class exactly the reference rate of each
  // of its expanded members, in the same number of iterations.  This holds
  // whether the solve counts members per resource itself or reads the
  // caller's per-resource counts, and for a compiled class order that
  // differs from the order the classes are numbered in.
  std::size_t deadRounds = 0;
  std::size_t countedRounds = 0;
  for (std::uint64_t seed = 1100; seed < 1140; ++seed) {
    auto p = randomClassProblem(seed);
    util::Rng rng(seed * 7 + 1);
    std::vector<std::uint32_t> order = p.classes.subset;
    rng.shuffle(order);
    SolverWorkspace workspace;
    SolverWorkspace reference;
    CompiledClasses compiled;
    workspace.compileClasses(p.classes.view(), order, compiled);
    for (int round = 0; round < 12; ++round) {
      if (round > 0) {
        for (auto& cap : p.classes.capacity) {
          cap = rng.bernoulli(0.15) ? 0.0 : rng.uniform(10.0, 1000.0);
        }
        for (auto& mult : p.multiplicity) {
          mult = static_cast<std::uint32_t>(rng.uniformInt(1, 9));
        }
        expandClasses(p, rng);
      }
      std::vector<std::uint32_t> resourceCount(p.classes.capacity.size(), 0);
      for (std::size_t c = 0; c < p.multiplicity.size(); ++c) {
        for (std::uint32_t k = 0; k < p.classes.adjLen[c]; ++k) {
          resourceCount[p.classes.adjacency[p.classes.adjOffset[c] + k]] += p.multiplicity[c];
        }
      }
      const bool anyDead = std::find(p.classes.capacity.begin(), p.classes.capacity.end(),
                                     0.0) != p.classes.capacity.end();
      deadRounds += anyDead ? 1 : 0;
      countedRounds += anyDead ? 0 : 1;

      std::vector<double> flowRates(p.classOfFlow.size(), -1.0);
      const auto refIters =
          reference.solveSubsetReference(p.expanded.view(), p.expanded.subset, flowRates);
      for (const bool withCounts : {false, true}) {
        std::vector<double> classRates(p.multiplicity.size(), -1.0);
        const auto iters = workspace.solveCompiled(
            compiled, p.classes.capacity, p.multiplicity, classRates,
            withCounts ? std::span<const std::uint32_t>(resourceCount)
                       : std::span<const std::uint32_t>());
        EXPECT_EQ(iters, refIters) << "seed " << seed << " round " << round;
        for (std::size_t f = 0; f < flowRates.size(); ++f) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(classRates[p.classOfFlow[f]]),
                    std::bit_cast<std::uint64_t>(flowRates[f]))
              << "seed " << seed << " round " << round << " flow " << f
              << (withCounts ? " (caller's counts)" : " (own counts)");
        }
      }
    }
  }
  EXPECT_GT(deadRounds, 50u) << "zero capacities must kill classes in many rounds";
  EXPECT_GT(countedRounds, 50u) << "the caller's counts must be read in many rounds";
}

TEST(SolverSoA, ClassSolveWithUnitMultiplicityIsThePerFlowSolve) {
  // Multiplicity 1 everywhere is the per-flow solve under another name.
  const auto p = randomClassProblem(77);
  const std::vector<std::uint32_t> ones(p.expanded.subset.size(), 1);
  auto view = p.expanded.view();
  SolverWorkspace workspace;
  std::vector<double> plain(ones.size(), -1.0);
  std::vector<double> unit(ones.size(), -1.0);
  const auto plainIters = workspace.solveSubset(view, p.expanded.subset, plain);
  view.multiplicity = ones;
  const auto unitIters = workspace.solveSubset(view, p.expanded.subset, unit);
  EXPECT_EQ(plainIters, unitIters);
  for (std::size_t f = 0; f < plain.size(); ++f) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(plain[f]), std::bit_cast<std::uint64_t>(unit[f]));
  }
}

TEST(SolverSoA, ClassSolveRejectsMixedWeightsAndEmptyClasses) {
  const std::vector<double> capacity{100.0};
  const std::vector<std::uint32_t> adjacency{0, 0};
  const std::vector<std::uint32_t> adjOffset{0, 1};
  const std::vector<std::uint32_t> adjLen{1, 1};
  const std::vector<double> weight{1.0, 2.0};
  const std::vector<double> rateCap{0.0, 0.0};
  const std::vector<std::uint32_t> multiplicity{3, 2};
  SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  view.multiplicity = multiplicity;
  SolverWorkspace workspace;
  std::vector<double> rates(2, 0.0);
  const std::vector<std::uint32_t> both{0, 1};
  EXPECT_THROW(workspace.solveSubset(view, both, rates), util::ContractError)
      << "mixed weights cannot be solved as classes";
  EXPECT_THROW(workspace.solveSubsetReference(view, both, rates), util::ContractError)
      << "the reference walk solves plain flows only";
  const std::vector<std::uint32_t> noMembers{0, 0};
  view.multiplicity = noMembers;
  const std::vector<std::uint32_t> first{0};
  EXPECT_THROW(workspace.solveSubset(view, first, rates), util::ContractError)
      << "a class needs at least one member";
}

}  // namespace
}  // namespace beesim::sim
