// Tests of the incremental, component-aware rate resolution in the fluid
// core: deferred completion callbacks (reentrancy), component dirtiness,
// randomized differential checks against from-scratch solves, the stalled-
// flow deadlock diagnostics, and the zero-allocation steady-state guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "ior/runner.hpp"
#include "qos/manager.hpp"
#include "sim/fluid.hpp"
#include "sim/maxmin.hpp"
#include "sim/trace.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

// --- Global allocation probe -------------------------------------------
//
// The test binary replaces the global allocator with a counting wrapper.
// The counter only ticks while a test arms it, so the rest of the suite is
// unaffected (beyond a predictable malloc passthrough).
namespace {
std::atomic<std::uint64_t> gAllocCount{0};
std::atomic<bool> gAllocProbeArmed{false};

struct AllocProbe {
  AllocProbe() {
    gAllocCount.store(0, std::memory_order_relaxed);
    gAllocProbeArmed.store(true, std::memory_order_relaxed);
  }
  ~AllocProbe() { gAllocProbeArmed.store(false, std::memory_order_relaxed); }
  std::uint64_t count() const { return gAllocCount.load(std::memory_order_relaxed); }
};
}  // namespace

// GCC's allocator-pairing analysis cannot see that these replacements keep
// new/delete consistent (both sides are malloc/free underneath).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
void* countingAlloc(std::size_t size) {
  if (gAllocProbeArmed.load(std::memory_order_relaxed)) {
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return countingAlloc(size); }
void* operator new[](std::size_t size) { return countingAlloc(size); }
// The nothrow forms must be replaced alongside the throwing ones: libstdc++'s
// std::get_temporary_buffer (std::stable_sort) allocates through nothrow new
// but releases through plain operator delete, so a partial replacement pairs
// the default allocator with std::free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (gAllocProbeArmed.load(std::memory_order_relaxed)) {
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace beesim::sim {
namespace {

using namespace beesim::util::literals;

ResourceIndex addLink(FluidSimulator& fluid, const std::string& name, double capacity) {
  return fluid.addResource(ResourceSpec{name, constantCapacity(capacity)});
}

/// Observer recording the id set of every onRatesSolved call.
class SolveSetObserver : public FluidObserver {
 public:
  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes,
                     SimTime) override {}
  void onRatesSolved(SimTime, std::span<const FlowId> ids, std::span<const util::MiBps>,
                     std::size_t) override {
    std::set<std::uint64_t> set;
    for (const auto id : ids) set.insert(id.value);
    solves.push_back(std::move(set));
  }
  void onFlowCompleted(const FlowStats&) override {}

  std::vector<std::set<std::uint64_t>> solves;
};

TEST(FluidIncremental, CompletionCallbacksMayStartFlowsAtSameInstant) {
  // Regression for the completion-sweep reentrancy hazard: four flows finish
  // at the *same* timestamp, and every callback immediately starts a new
  // flow.  Before callbacks were deferred to a drain list, the callback
  // mutated the flow bookkeeping while the sweep was iterating it.
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  std::size_t firstWave = 0;
  std::size_t secondWave = 0;
  double lastEnd = 0.0;
  for (int i = 0; i < 4; ++i) {
    fluid.startFlow(FlowSpec{.path = {link},
                             .bytes = 100_MiB,
                             .queueWeight = 1.0,
                             .rateCap = 0.0,
                             .onComplete = [&](const FlowStats&) {
                               ++firstWave;
                               fluid.startFlow(FlowSpec{
                                   .path = {link},
                                   .bytes = 50_MiB,
                                   .queueWeight = 1.0,
                                   .rateCap = 0.0,
                                   .onComplete = [&](const FlowStats& s) {
                                     ++secondWave;
                                     lastEnd = std::max(lastEnd, s.endTime);
                                   }});
                             }});
  }
  fluid.run();
  EXPECT_EQ(firstWave, 4u);
  EXPECT_EQ(secondWave, 4u);
  // Wave 1: 4 x 100 MiB at 25 MiB/s each -> t=4.  Wave 2: 4 x 50 MiB at
  // 25 MiB/s -> +2 s.
  EXPECT_NEAR(lastEnd, 6.0, 1e-6);
}

TEST(FluidIncremental, CompletionCallbackMayInvalidateCapacities) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  bool done = false;
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 100_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats&) {
                             fluid.invalidateCapacities();
                             done = true;
                           }});
  fluid.run();
  EXPECT_TRUE(done);
}

TEST(FluidIncremental, DisjointComponentsAreNotResolved) {
  // Two flows on disjoint links: starting the second must re-solve only its
  // own component; the first flow's (clean) component is left untouched.
  FluidSimulator fluid;
  SolveSetObserver observer;
  fluid.addObserver(&observer);
  const auto linkA = addLink(fluid, "a", 100.0);
  const auto linkB = addLink(fluid, "b", 100.0);
  const auto f1 = fluid.startFlow(FlowSpec{.path = {linkA}, .bytes = 1_GiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.engine().runUntil(0.0);
  FlowId f2;
  fluid.engine().schedule(1.0, [&] {
    f2 = fluid.startFlow(FlowSpec{.path = {linkB}, .bytes = 1_GiB,
                                  .queueWeight = 1.0, .rateCap = 0.0,
                                  .onComplete = nullptr});
  });
  fluid.engine().runUntil(1.0);
  ASSERT_EQ(observer.solves.size(), 2u);
  EXPECT_EQ(observer.solves[0], (std::set<std::uint64_t>{f1.value}));
  EXPECT_EQ(observer.solves[1], (std::set<std::uint64_t>{f2.value}));
  // The clean component kept its rate without being re-solved.
  EXPECT_NEAR(fluid.flowRate(f1), 100.0, 1e-9);
  EXPECT_NEAR(fluid.flowRate(f2), 100.0, 1e-9);
}

TEST(FluidIncremental, SharedResourceMergesComponents) {
  // A flow crossing both links welds the two components into one, and the
  // merged component is re-solved as a whole.
  FluidSimulator fluid;
  SolveSetObserver observer;
  fluid.addObserver(&observer);
  const auto linkA = addLink(fluid, "a", 100.0);
  const auto linkB = addLink(fluid, "b", 100.0);
  const auto f1 = fluid.startFlow(FlowSpec{.path = {linkA}, .bytes = 1_GiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  const auto f2 = fluid.startFlow(FlowSpec{.path = {linkB}, .bytes = 1_GiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.engine().runUntil(0.0);
  FlowId f3;
  fluid.engine().schedule(1.0, [&] {
    f3 = fluid.startFlow(FlowSpec{.path = {linkA, linkB}, .bytes = 1_GiB,
                                  .queueWeight = 1.0, .rateCap = 0.0,
                                  .onComplete = nullptr});
  });
  fluid.engine().runUntil(1.0);
  ASSERT_FALSE(observer.solves.empty());
  EXPECT_EQ(observer.solves.back(),
            (std::set<std::uint64_t>{f1.value, f2.value, f3.value}));
  // Max-min over the merged component: f3 is bottlenecked to 50 on either
  // link, and f1/f2 take the remainder.
  EXPECT_NEAR(fluid.flowRate(f3), 50.0, 1e-9);
  EXPECT_NEAR(fluid.flowRate(f1), 50.0, 1e-9);
  EXPECT_NEAR(fluid.flowRate(f2), 50.0, 1e-9);
}

TEST(FluidIncremental, DeadlockReportsStalledFlowPaths) {
  FluidSimulator fluid;
  const auto nic = addLink(fluid, "client-nic", 100.0);
  const auto dead = addLink(fluid, "dead-ost", 0.0);
  fluid.startFlow(FlowSpec{.path = {nic, dead}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  try {
    fluid.run();
    FAIL() << "expected a deadlock ContractError";
  } catch (const util::ContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlocked"), std::string::npos) << msg;
    EXPECT_NE(msg.find("flow #"), std::string::npos) << msg;
    EXPECT_NE(msg.find("client-nic"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dead-ost"), std::string::npos) << msg;
  }
}

TEST(FluidIncremental, RandomizedIncrementalMatchesScratchSolve) {
  // Property test: random multi-component scenarios with staggered starts,
  // weights, rate caps and periodic re-solves, run with the differential
  // check enabled -- every resolve re-solves all live flows from scratch and
  // asserts the incremental rates match to 1e-9 relative.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    util::Rng rng(seed);
    FluidSimulator fluid;
    fluid.setSolverCheck(true);
    fluid.setResolveInterval(0.1);

    const std::size_t nGroups = 1 + seed % 3;  // disjoint resource groups
    constexpr std::size_t kGroupSize = 4;
    std::vector<ResourceIndex> resources;
    for (std::size_t g = 0; g < nGroups; ++g) {
      for (std::size_t r = 0; r < kGroupSize; ++r) {
        const double base = rng.uniform(50.0, 500.0);
        // Half the resources wobble over time so clean/dirty transitions and
        // capacity-change detection are exercised, not just membership.
        std::string name = "r";
        name += std::to_string(g);
        name += '_';
        name += std::to_string(r);
        if (r % 2 == 0) {
          resources.push_back(fluid.addResource(ResourceSpec{
              std::move(name), [base](const ResourceLoad& load) {
                return base * (1.0 + 0.2 * std::sin(3.0 * load.time));
              }}));
        } else {
          resources.push_back(addLink(fluid, name, base));
        }
      }
    }

    std::size_t completed = 0;
    constexpr std::size_t kFlows = 24;
    for (std::size_t f = 0; f < kFlows; ++f) {
      const auto group =
          static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(nGroups) - 1));
      FlowSpec spec;
      const auto pathLen = static_cast<std::size_t>(1 + rng.uniformInt(0, 2));
      for (const auto r : rng.sampleWithoutReplacement(kGroupSize, pathLen)) {
        spec.path.push_back(resources[group * kGroupSize + r]);
      }
      spec.bytes = static_cast<util::Bytes>(rng.uniformInt(10, 200)) * 1_MiB;
      spec.queueWeight = rng.uniform(0.5, 4.0);
      spec.rateCap = rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform(20.0, 100.0) : 0.0;
      spec.onComplete = [&completed](const FlowStats&) { ++completed; };
      fluid.startFlowAt(rng.uniform(0.0, 2.0), std::move(spec));
    }
    fluid.run();
    EXPECT_EQ(completed, kFlows) << "seed " << seed;
  }
}

/// Everything a run reports about its rates and completions, as raw bits.
struct ClassRunTrace {
  std::vector<std::uint64_t> completions;  // (id, end-time bits) pairs
  std::vector<std::uint64_t> solved;       // (time, id, rate bits) triples
  std::size_t iterations = 0;
};

class RateTraceObserver : public FluidObserver {
 public:
  explicit RateTraceObserver(ClassRunTrace& trace) : trace_(trace) {}
  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes,
                     SimTime) override {}
  void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                     std::span<const util::MiBps> rates, std::size_t) override {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      trace_.solved.push_back(std::bit_cast<std::uint64_t>(at));
      trace_.solved.push_back(ids[i].value);
      trace_.solved.push_back(std::bit_cast<std::uint64_t>(rates[i]));
    }
  }
  void onFlowCompleted(const FlowStats& stats) override {
    trace_.completions.push_back(stats.id.value);
    trace_.completions.push_back(std::bit_cast<std::uint64_t>(stats.endTime));
  }

 private:
  ClassRunTrace& trace_;
};

/// A randomized schedule over three disjoint groups of shared paths, the way
/// ranks of one node share a path: group 0 has the non-dyadic uniform weight
/// 0.93/3 and a load-dependent backbone, group 1 weight 1 with rate-capped
/// paths and a target that drops to zero capacity for a while, group 2 mixes
/// weights 1 and 2.5 (solved flow by flow).  Flows start, get cancelled and
/// see capacity invalidations at random instants.
ClassRunTrace runClassSchedule(std::uint64_t seed, bool referenceSolver) {
  ClassRunTrace trace;
  util::Rng rng(seed);
  FluidSimulator fluid;
  fluid.setReferenceSolver(referenceSolver);
  RateTraceObserver observer(trace);
  fluid.addObserver(&observer);

  bool targetDown = false;
  std::vector<std::vector<FlowPath>> templates(3);
  for (std::size_t g = 0; g < 3; ++g) {
    // Appended step by step: GCC 12 at -O3 reports a false -Werror=restrict
    // on the chained operator+ form.
    std::string prefix = "g";
    prefix += std::to_string(g);
    prefix += '_';
    std::vector<ResourceIndex> nodes;
    for (int n = 0; n < 3; ++n) {
      nodes.push_back(
          addLink(fluid, prefix + "node" + std::to_string(n), rng.uniform(80.0, 300.0)));
    }
    const double backboneBase = rng.uniform(200.0, 600.0);
    const auto backbone = fluid.addResource(ResourceSpec{
        prefix + "backbone", [backboneBase](const ResourceLoad& load) {
          return backboneBase * load.queueDepth / (load.queueDepth + 2.0);
        }});
    std::vector<ResourceIndex> targets;
    for (int o = 0; o < 2; ++o) {
      const double base = rng.uniform(100.0, 400.0);
      const bool toggles = g == 1 && o == 0;
      targets.push_back(fluid.addResource(ResourceSpec{
          prefix + "ost" + std::to_string(o),
          [base, toggles, &targetDown](const ResourceLoad& load) {
            if (toggles && targetDown) return 0.0;
            return base * (1.0 + 0.1 * std::sin(5.0 * load.time));
          }}));
    }
    for (const auto node : nodes) {
      for (const auto target : targets) templates[g].push_back({node, backbone, target});
    }
  }

  std::vector<FlowId> ids;
  for (std::size_t f = 0; f < 90; ++f) {
    const std::size_t g = f % 3;
    const auto k = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(templates[g].size()) - 1));
    FlowSpec spec;
    spec.path = templates[g][k];
    spec.bytes = static_cast<util::Bytes>(rng.uniformInt(5, 80)) * 1_MiB;
    spec.queueWeight = g == 0 ? 0.93 / 3.0 : (g == 2 && k % 2 == 1 ? 2.5 : 1.0);
    spec.rateCap = g == 1 && k % 3 == 0 ? 40.0 : 0.0;
    fluid.engine().schedule(rng.uniform(0.0, 2.0),
                            [&fluid, &ids, spec = std::move(spec)]() mutable {
                              ids.push_back(fluid.startFlow(std::move(spec)));
                            });
  }
  for (int c = 0; c < 20; ++c) {
    const double pick = rng.uniform(0.0, 1.0);
    fluid.engine().schedule(rng.uniform(0.2, 3.0), [&fluid, &ids, pick] {
      if (ids.empty()) return;
      const auto i = static_cast<std::size_t>(pick * static_cast<double>(ids.size()));
      fluid.cancelFlow(ids[std::min(i, ids.size() - 1)]);
    });
  }
  for (int v = 0; v < 10; ++v) {
    fluid.engine().schedule(rng.uniform(0.0, 3.0), [&fluid] { fluid.invalidateCapacities(); });
  }
  fluid.engine().schedule(0.7, [&fluid, &targetDown] {
    targetDown = true;
    fluid.invalidateCapacities();
  });
  fluid.engine().schedule(1.4, [&fluid, &targetDown] {
    targetDown = false;
    fluid.invalidateCapacities();
  });
  fluid.run();
  trace.iterations = fluid.solverIterations();
  return trace;
}

TEST(FluidIncremental, FlowClassesMatchPerFlowReferenceBitwise) {
  // The class-aggregated solve must reproduce the reference mode, which
  // solves every component flow by flow, exactly: every observer-reported
  // rate, every completion time and the filling iteration count, across
  // starts, cancellations, load-dependent and zero-capacity transitions,
  // and a mixed-weight component.
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u, 35u, 36u, 37u, 38u}) {
    const auto reference = runClassSchedule(seed, true);
    const auto classes = runClassSchedule(seed, false);
    EXPECT_EQ(classes.completions, reference.completions) << "seed " << seed;
    EXPECT_EQ(classes.solved, reference.solved) << "seed " << seed;
    EXPECT_EQ(classes.iterations, reference.iterations) << "seed " << seed;
    EXPECT_GT(reference.completions.size() / 2, 50u) << "most flows must complete";
  }
}

TEST(FluidIncremental, CohortsCompleteOnScheduleInListOrder) {
  // Cohort bookkeeping under the differential check (every resolve compares
  // each flow's cohort against a per-flow shadow of its remaining bytes and
  // recounts class members and compiled class sets).  Six disjoint
  // components, each finishing at its own instants:
  //   X  four equal flows started together, two more staggered after 1 s
  //      (a second cohort), one member of the first cohort cancelled;
  //   Y  a flow stalled at zero capacity that a later equal-size flow joins;
  //   Z  a flow joining a running cohort at the same instant (it reports
  //      rate 0 until its +0 resolve);
  //   PQ two components merged by a flow crossing both;
  //   M  one mixed-weight group, solved flow by flow;
  //   A  two sizes alternating at one instant on one path (two cohorts,
  //      each joined past the other).
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  const auto x = addLink(fluid, "x", 120.0);
  bool yDown = true;
  const auto y = fluid.addResource(ResourceSpec{
      "y", [&yDown](const ResourceLoad&) { return yDown ? 0.0 : 100.0; }});
  const auto z = addLink(fluid, "z", 100.0);
  const auto pLink = addLink(fluid, "p", 100.0);
  const auto qLink = addLink(fluid, "q", 100.0);
  const auto mLink = addLink(fluid, "m", 100.0);
  const auto aLink = addLink(fluid, "a", 120.0);

  std::vector<std::pair<std::string, SimTime>> completions;
  std::vector<FlowId> ids;
  const auto start = [&](const std::string& name, FlowPath path,
                         util::Bytes bytes, double weight = 1.0) {
    ids.push_back(fluid.startFlow(FlowSpec{
        .path = path,
        .bytes = bytes,
        .queueWeight = weight,
        .rateCap = 0.0,
        .onComplete = [&completions, name](const FlowStats& stats) {
          completions.emplace_back(name, stats.endTime);
        }}));
    return ids.back();
  };

  FlowId f2{};
  FlowId k1{};
  fluid.engine().schedule(0.0, [&] {
    start("f1", {x}, 60_MiB);
    f2 = start("f2", {x}, 60_MiB);
    start("f3", {x}, 60_MiB);
    start("f4", {x}, 60_MiB);
    start("h1", {y}, 50_MiB);
    k1 = start("k1", {z}, 60_MiB);
    start("m1", {pLink}, 100_MiB);
    start("m2", {qLink}, 100_MiB);
    // w2 and w3 form one cohort; w1 sits between them in the list.
    start("w2", {mLink}, 40_MiB, 2.0);
    start("w1", {mLink}, 20_MiB, 1.0);
    start("w3", {mLink}, 40_MiB, 2.0);
    start("a1", {aLink}, 30_MiB);
    start("a2", {aLink}, 20_MiB);
    start("a3", {aLink}, 30_MiB);
    start("a4", {aLink}, 20_MiB);
    // Runs after the +0 resolve the starts above queued.
    fluid.engine().scheduleAfter(0.0, [&] {
      EXPECT_DOUBLE_EQ(fluid.flowRate(k1), 100.0);
      const auto k2 = start("k2", {z}, 60_MiB);
      EXPECT_EQ(fluid.flowRate(k2), 0.0) << "a joining flow has no rate before its solve";
      EXPECT_DOUBLE_EQ(fluid.flowRate(k1), 100.0);
      fluid.engine().scheduleAfter(0.0, [&fluid, k1, k2] {
        EXPECT_DOUBLE_EQ(fluid.flowRate(k1), 50.0);
        EXPECT_DOUBLE_EQ(fluid.flowRate(k2), 50.0);
      });
    });
  });
  fluid.engine().schedule(0.5, [&] {
    const auto h2 = start("h2", {y}, 50_MiB);
    start("m3", {pLink, qLink}, 50_MiB);
    EXPECT_EQ(fluid.flowRate(h2), 0.0);
  });
  fluid.engine().schedule(1.0, [&] {
    start("g1", {x}, 60_MiB);
    start("g2", {x}, 60_MiB);
    yDown = false;
    fluid.invalidateCapacities();
  });
  fluid.engine().schedule(1.5, [&] {
    // f's cohort has 60 - 30 - 10 MiB left.
    const auto left = fluid.cancelFlow(f2);
    ASSERT_TRUE(left.has_value());
    EXPECT_EQ(*left, 20_MiB);
  });
  fluid.run();

  // X: 30 MiB/s each until 1 s, 20 until 1.5 s, then 24: f1/f3/f4 finish
  // 20 MiB later, and g1/g2 their last 30 MiB at 60 MiB/s.  Y: 50 MiB/s
  // each from 1 s.  Z: 50 each.  PQ: all three hold 50 MiB at 0.5 s and get
  // 50 MiB/s.  M: weights 1:2:2 on 100 MiB/s.  A: 30 MiB/s each, then
  // 60 for the last 10 MiB of a1/a3.
  const std::vector<std::pair<std::string, SimTime>> expected{
      {"a2", 2.0 / 3.0},                  {"a4", 2.0 / 3.0},
      {"a1", 2.0 / 3.0 + 1.0 / 6.0},      {"a3", 2.0 / 3.0 + 1.0 / 6.0},
      {"w2", 1.0},      {"w1", 1.0},      {"w3", 1.0},      {"k1", 1.2},
      {"k2", 1.2},      {"m1", 1.5},      {"m2", 1.5},      {"m3", 1.5},
      {"h1", 2.0},      {"h2", 2.0},      {"f1", 1.5 + 20.0 / 24.0},
      {"f3", 1.5 + 20.0 / 24.0},          {"f4", 1.5 + 20.0 / 24.0},
      {"g1", 2.0 + 5.0 / 6.0},            {"g2", 2.0 + 5.0 / 6.0}};
  ASSERT_EQ(completions.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(completions[i].first, expected[i].first) << "completion #" << i;
    EXPECT_NEAR(completions[i].second, expected[i].second, 1e-9) << expected[i].first;
  }
  EXPECT_EQ(fluid.activeFlows(), 0u);
}

/// Flow churn on a fixed schedule that allocates nothing once set up: every
/// `period` seconds it cancels one member of the previous batch, if still
/// live, and starts `batchSize` equal flows on the next of its paths (one
/// cohort per batch).  A path's class leaves its component when its batch
/// drains and re-enters with the next batch on it, so components recompile.
/// All specs are built up front, and each batch schedules the next with a
/// capture of a pointer and an index, which fits std::function's inline
/// storage.
class ChurnDriver {
 public:
  ChurnDriver(FluidSimulator& fluid, std::vector<FlowPath> paths,
              std::vector<double> weights, util::Bytes bytes, std::size_t batchSize,
              SimTime period, SimTime until)
      : fluid_(fluid), batchSize_(batchSize), period_(period) {
    const auto batches = static_cast<std::size_t>(until / period);
    for (std::size_t k = 0; k < batches; ++k) {
      const auto p = k % paths.size();
      for (std::size_t i = 0; i < batchSize; ++i) {
        specs_.push_back(FlowSpec{.path = paths[p],
                                  .bytes = bytes,
                                  .queueWeight = weights[p],
                                  .rateCap = 0.0,
                                  .onComplete = [this](const FlowStats&) { ++completed; }});
      }
    }
    started_.reserve(specs_.size());
    fluid.engine().schedule(period, [this] { runBatch(0); });
  }

  std::size_t live() const {
    std::size_t n = 0;
    for (const auto id : started_) n += fluid_.flowActive(id) ? 1 : 0;
    return n;
  }

  std::size_t completed = 0;
  std::size_t cancelled = 0;

 private:
  void runBatch(std::size_t k) {
    if (k > 0 && fluid_.cancelFlow(started_[(k - 1) * batchSize_])) ++cancelled;
    for (std::size_t i = 0; i < batchSize_; ++i) {
      started_.push_back(fluid_.startFlow(std::move(specs_[k * batchSize_ + i])));
    }
    // One pending event at a time, so the engine's event pool stays warm.
    if ((k + 2) * batchSize_ <= specs_.size()) {
      fluid_.engine().scheduleAfter(period_, [this, k] { runBatch(k + 1); });
    }
  }

  FluidSimulator& fluid_;
  std::size_t batchSize_;
  SimTime period_;
  std::vector<FlowSpec> specs_;
  std::vector<FlowId> started_;
};

TEST(FluidIncremental, SteadyStateResolveIsAllocationFree) {
  // The acceptance bar for the incremental resolver: once warmed up, the
  // periodic resolve path (advance -> capacity evaluation -> component solve
  // -> wakeup rescheduling) performs zero heap allocations.  Time-varying
  // capacities keep every component dirty, so the solver genuinely runs in
  // the measured window.  Churn runs through the window too: batches of
  // equal flows start (cohorts), complete and get cancelled, and their
  // classes enter and leave the components (recompiles), so the cohort
  // pool, the compiled problems and the position views are covered.
  // Checked with mixed weights (per-flow solves) and with ppn = 4 ranks per
  // path at one weight per component (class solves, so the class table and
  // per-class scratch are covered too; the two components' weights differ,
  // so the weight-sum table is rebuilt each resolve).
  for (const bool ranksShareWeight : {false, true}) {
    FluidSimulator fluid;
    fluid.setSolverCheck(false);  // the differential check allocates by design
    fluid.setResolveInterval(0.05);
    std::vector<ResourceIndex> links;
    for (int r = 0; r < 6; ++r) {
      links.push_back(fluid.addResource(ResourceSpec{
          "link" + std::to_string(r), [](const ResourceLoad& load) {
            return 200.0 + 50.0 * std::sin(load.time);
          }}));
    }
    // Two disjoint components, several multi-resource flows each; sizes
    // large enough that nothing completes inside the measurement window.
    for (int f = 0; f < 8; ++f) {
      const bool nodeA = f % 2 == 0;
      fluid.startFlow(FlowSpec{
          .path = nodeA ? FlowPath{links[0], links[1], links[2]}
                        : FlowPath{links[0], links[2]},
          .bytes = 1_TiB,
          .queueWeight = ranksShareWeight ? 0.93 / 3.0 : 1.0 + f,
          .rateCap = 0.0,
          .onComplete = nullptr});
      fluid.startFlow(FlowSpec{
          .path = nodeA ? FlowPath{links[3], links[4], links[5]}
                        : FlowPath{links[3], links[5]},
          .bytes = 1_TiB,
          .queueWeight = ranksShareWeight ? 1.5 : 1.0 + f,
          .rateCap = 0.0,
          .onComplete = nullptr});
    }
    // Churn in both components, on paths of their own (classes that come
    // and go) at the component's weight.
    ChurnDriver churn(fluid,
                      {{links[1], links[2]}, {links[4], links[5]}, {links[0], links[1]}},
                      {ranksShareWeight ? 0.93 / 3.0 : 2.0, ranksShareWeight ? 1.5 : 2.0,
                       ranksShareWeight ? 0.93 / 3.0 : 3.0},
                      2_MiB, 3, 0.07, 3.0);
    fluid.engine().runUntil(1.0);  // warm up scratch arrays and event slots
    const auto resolvesBefore = fluid.resolveCount();
    const auto iterationsBefore = fluid.solverIterations();
    const auto completedBefore = churn.completed;
    const auto cancelledBefore = churn.cancelled;
    {
      AllocProbe probe;
      fluid.engine().runUntil(2.0);
      EXPECT_EQ(probe.count(), 0u) << "steady-state resolves must not allocate (ranks "
                                   << (ranksShareWeight ? "share" : "mix") << " weights)";
    }
    EXPECT_GE(fluid.resolveCount(), resolvesBefore + 15);
    EXPECT_GT(fluid.solverIterations(), iterationsBefore)
        << "the solver must actually run in the measured window";
    EXPECT_GT(churn.completed, completedBefore + 10) << "churn must complete flows";
    EXPECT_GT(churn.cancelled, cancelledBefore + 3) << "churn must cancel flows";
    EXPECT_EQ(fluid.activeFlows(), 16u + churn.live());
  }
}

/// Counts started flows; allocates nothing per event.
struct FlowStartCounter final : FluidObserver {
  std::uint64_t started = 0;
  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes, SimTime) override {
    ++started;
  }
  void onRatesSolved(SimTime, std::span<const FlowId>, std::span<const util::MiBps>,
                     std::size_t) override {}
  void onFlowCompleted(const FlowStats&) override {}
};

/// Heap allocations and write transfers of a warmed-up window of an IOR
/// write whose transfers each cover `chunksPerTransfer` stripe chunks, so
/// start one chunk flow each.
struct IorWindow {
  std::uint64_t allocations = 0;
  std::uint64_t chunkFlows = 0;
  std::uint64_t transfers = 0;
};

/// The plain path (no faults, hedging, mirroring or QoS), or with
/// `controlled` the chunk-control path: hedging on, a QoS manager at a
/// rate that never binds, and fault mode kDegraded, so every chunk gets a
/// control record, a watchdog and a hedge timer and passes QoS admission.
IorWindow measureIorWrite(std::size_t chunksPerTransfer, bool controlled) {
  FluidSimulator fluid;
  fluid.setSolverCheck(false);  // the differential check allocates by design
  util::Rng rng(7);
  beegfs::BeegfsParams params;
  params.defaultStripe.stripeCount = 4;
  if (controlled) {
    // Short timers, so the pending watchdogs and hedge checks reach their
    // steady-state count (and the event pool its working size) in warm-up.
    params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
    params.faults.ioTimeout = 0.05;
    params.hedge.enabled = true;
    params.hedge.deadline = 0.02;
  }
  beegfs::Deployment deployment(fluid, topo::makePlafrim(topo::Scenario::kEthernet10G, 4),
                                params, rng.split());
  beegfs::FileSystem fs(deployment, rng.split());
  std::optional<qos::QosManager> qos;
  if (controlled) {
    qos::QosPolicy policy;
    policy.enabled = true;
    policy.rate = 1e6;  // MiB/s: far above what 4 nodes can write
    qos.emplace(fluid, policy);
    qos->registerApp(qos::makeAppSpec(policy), {0, 1, 2, 3});
    fs.setQosManager(&*qos);
  }
  FlowStartCounter counter;
  fluid.addObserver(&counter);

  ior::IorOptions options;
  options.transferSize = params.defaultStripe.chunkSize;
  options.blockSize = params.defaultStripe.chunkSize * chunksPerTransfer;
  options.segments = controlled ? 400 : 200;
  bool finished = false;
  ior::launchIor(fs, ior::IorJob::onFirstNodes(4, 4), options, 0.0,
                 [&finished](const ior::IorResult&) { finished = true; });
  // Warm-up: pools, scratch, event slots and the class table reach their
  // working size.  A transfer's chunks start within one event, so windows
  // cut at event boundaries hold whole transfers.
  const auto stepUntil = [&](std::uint64_t flows) {
    while (counter.started < flows && fluid.engine().step()) {
    }
  };
  stepUntil(controlled ? 3200 : 800);
  IorWindow window;
  const auto before = counter.started;
  {
    AllocProbe probe;
    stepUntil(before + 1600);
    window.allocations = probe.count();
  }
  window.chunkFlows = counter.started - before;
  window.transfers = window.chunkFlows / chunksPerTransfer;
  EXPECT_EQ(window.chunkFlows % chunksPerTransfer, 0u);
  fluid.run();
  EXPECT_TRUE(finished);
  if (controlled) {
    // The control machinery ran and stood down: every chunk passed
    // admission, none lagged, and no record outlived its chunk.
    EXPECT_DOUBLE_EQ(qos->stats().tokensIssued,
                     static_cast<double>(options.blockSize * options.segments * 16));
    EXPECT_EQ(qos->stats().deferrals, 0u);
    EXPECT_EQ(fs.hedgeStats().hedgesIssued, 0u);
    EXPECT_EQ(fs.faultStats().timeouts, 0u);
    EXPECT_EQ(fs.hedgedInFlight(), 0u);
  }
  return window;
}

TEST(FluidIncremental, PlainIorChunkFlowsAreAllocationFree) {
  // The I/O-path counterpart of the steady-state bar: a chunk flow -- its
  // path, its completion closure, its fluid-core bookkeeping -- performs no
  // heap allocation.  What is left is per transfer (the stripe split and the
  // IOR runner's continuation), so transfers of 1 and of 4 chunks must cost
  // the same per transfer.
  const auto one = measureIorWrite(1, /*controlled=*/false);
  const auto four = measureIorWrite(4, /*controlled=*/false);
  ASSERT_GT(one.transfers, 100u);
  ASSERT_GT(four.transfers, 100u);
  // Per transfer: at most the bytesPerTarget vector and the continuation.
  const auto perTransfer = one.allocations / one.transfers;
  EXPECT_EQ(one.allocations, perTransfer * one.transfers)
      << one.allocations << " allocations for " << one.transfers << " transfers";
  EXPECT_LE(perTransfer, 2u);
  EXPECT_EQ(four.allocations, perTransfer * four.transfers)
      << four.allocations << " allocations for " << four.chunkFlows << " chunk flows in "
      << four.transfers << " transfers, " << perTransfer << " per transfer";
}

TEST(FluidIncremental, ControlledIorChunkFlowsAreAllocationFree) {
  // The same bar with every chunk under control: its record, QoS admission,
  // watchdog and hedge timer cost nothing once the record table and the
  // event pool are warm, so a controlled transfer costs what a plain one
  // does, whatever its chunk count.
  const auto one = measureIorWrite(1, /*controlled=*/true);
  const auto four = measureIorWrite(4, /*controlled=*/true);
  ASSERT_GT(one.transfers, 100u);
  ASSERT_GT(four.transfers, 100u);
  const auto perTransfer = one.allocations / one.transfers;
  EXPECT_EQ(one.allocations, perTransfer * one.transfers)
      << one.allocations << " allocations for " << one.transfers << " transfers";
  EXPECT_LE(perTransfer, 2u);
  EXPECT_EQ(four.allocations, perTransfer * four.transfers)
      << four.allocations << " allocations for " << four.chunkFlows << " chunk flows in "
      << four.transfers << " transfers, " << perTransfer << " per transfer";
}

TEST(FluidIncremental, ClusterScaleResolveIsAllocationFree) {
  // The cluster-scale bar (DESIGN.md §2.7): 10k flows over 1k wobbling
  // resources in 100 disjoint components, with a ring trace sink attached --
  // and the warmed-up resolve path still performs zero heap allocations.
  // Checked on both the exact path (ε = 0, every component re-solves every
  // tick) and the ε-bounded path (deferral bookkeeping must be free too),
  // each with random per-flow weights (per-flow solves) and with ppn > 1:
  // every app's flows come from 12 node paths at one weight, so the solves
  // run over flow classes of ~8 ranks each.  A tenth of the apps also see
  // churn: cohorts starting, completing and being cancelled, and classes
  // entering and leaving their components.
  for (const auto& [epsilon, ranksShareWeight] :
       {std::pair{0.0, false}, std::pair{25.0, false}, std::pair{0.0, true},
        std::pair{25.0, true}}) {
    FluidSimulator fluid;
    fluid.setSolverCheck(false);  // the differential check allocates by design
    if (epsilon > 0.0) fluid.setSolverEpsilon(epsilon);
    fluid.setResolveInterval(0.05);
    constexpr std::size_t kApps = 100;
    constexpr std::size_t kResPerApp = 10;
    constexpr std::size_t kFlowsPerApp = 100;
    std::vector<ResourceIndex> links;
    for (std::size_t r = 0; r < kApps * kResPerApp; ++r) {
      const double phase = 0.1 * static_cast<double>(r);
      links.push_back(fluid.addResource(ResourceSpec{
          "link" + std::to_string(r), [phase](const ResourceLoad& load) {
            return 500.0 + 2.0 * std::sin(3.0 * load.time + phase);
          }}));
    }
    util::Rng rng(20220714);
    constexpr std::size_t kNodesPerApp = 12;
    for (std::size_t a = 0; a < kApps; ++a) {
      std::vector<FlowPath> nodePaths(ranksShareWeight ? kNodesPerApp : 0);
      for (auto& path : nodePaths) {
        for (const auto r : rng.sampleWithoutReplacement(kResPerApp, 3)) {
          path.push_back(links[a * kResPerApp + r]);
        }
      }
      for (std::size_t f = 0; f < kFlowsPerApp; ++f) {
        FlowSpec spec;
        if (ranksShareWeight) {
          spec.path = nodePaths[f % kNodesPerApp];
        } else {
          for (const auto r : rng.sampleWithoutReplacement(kResPerApp, 3)) {
            spec.path.push_back(links[a * kResPerApp + r]);
          }
        }
        spec.bytes = 1_TiB;  // nothing completes inside the window
        spec.queueWeight = ranksShareWeight ? 1.0 : rng.uniform(0.5, 4.0);
        fluid.startFlow(std::move(spec));
      }
    }
    std::vector<std::unique_ptr<ChurnDriver>> churn;
    for (std::size_t a = 0; a < kApps; a += 10) {
      const auto l = [&](std::size_t r) { return links[a * kResPerApp + r]; };
      churn.push_back(std::make_unique<ChurnDriver>(
          fluid, std::vector<FlowPath>{{l(0), l(1)}, {l(2), l(3)}},
          std::vector<double>{1.0, 1.0}, 2_MiB, 4, 0.07, 2.0));
    }
    RingTraceSink ring(fluid, 1u << 16);
    fluid.engine().runUntil(1.0);  // warm up pools, scratch and observer runs
    const auto resolvesBefore = fluid.resolveCount();
    std::size_t completedBefore = 0;
    std::size_t cancelledBefore = 0;
    for (const auto& c : churn) {
      completedBefore += c->completed;
      cancelledBefore += c->cancelled;
    }
    {
      AllocProbe probe;
      fluid.engine().runUntil(1.5);
      EXPECT_EQ(probe.count(), 0u)
          << "cluster-scale steady-state resolves must not allocate (epsilon="
          << epsilon << ", ranks " << (ranksShareWeight ? "share" : "mix") << " weights)";
    }
    std::size_t completed = 0;
    std::size_t cancelled = 0;
    std::size_t live = 0;
    for (const auto& c : churn) {
      completed += c->completed;
      cancelled += c->cancelled;
      live += c->live();
    }
    EXPECT_GT(completed, completedBefore + 50) << "churn must complete flows";
    EXPECT_GT(cancelled, cancelledBefore + 30) << "churn must cancel flows";
    EXPECT_GE(fluid.resolveCount(), resolvesBefore + 9);
    EXPECT_EQ(fluid.activeFlows(), kApps * kFlowsPerApp + live);
    EXPECT_GT(ring.recorded(), 0u);
    if (epsilon > 0.0) {
      EXPECT_GT(fluid.deferredResolves(), 0u)
          << "the wobble stays inside ε, so deferral must engage";
    } else {
      EXPECT_EQ(fluid.deferredResolves(), 0u);
    }
  }
}

TEST(SolverWorkspaceTest, SubsetSolveMatchesWholeProblem) {
  // Solving two disjoint halves of a problem through one reused workspace
  // must reproduce the reference whole-problem solution exactly (max-min
  // decomposes over connected components).
  util::Rng rng(7);
  constexpr std::size_t kRes = 8;
  constexpr std::size_t kFlows = 32;
  std::vector<SolverResource> resources(kRes);
  for (auto& r : resources) r.capacity = rng.uniform(50.0, 400.0);
  std::vector<SolverFlow> flows(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f) {
    const std::size_t half = f % 2;  // even flows -> resources 0..3, odd -> 4..7
    for (const auto r : rng.sampleWithoutReplacement(kRes / 2, 2)) {
      flows[f].resources.push_back(static_cast<std::uint32_t>(half * kRes / 2 + r));
    }
    flows[f].weight = rng.uniform(0.5, 4.0);
    if (f % 3 == 0) flows[f].rateCap = rng.uniform(10.0, 60.0);
  }
  const auto reference = solveMaxMin(resources, flows);

  // Flatten to the CSR view.
  std::vector<double> capacity(kRes);
  for (std::size_t r = 0; r < kRes; ++r) capacity[r] = resources[r].capacity;
  std::vector<std::uint32_t> adjacency;
  std::vector<std::uint32_t> adjOffset(kFlows);
  std::vector<std::uint32_t> adjLen(kFlows);
  std::vector<double> weight(kFlows);
  std::vector<double> rateCap(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f) {
    adjOffset[f] = static_cast<std::uint32_t>(adjacency.size());
    adjLen[f] = static_cast<std::uint32_t>(flows[f].resources.size());
    adjacency.insert(adjacency.end(), flows[f].resources.begin(),
                     flows[f].resources.end());
    weight[f] = flows[f].weight;
    rateCap[f] = flows[f].rateCap;
  }
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};

  SolverWorkspace workspace;
  std::vector<double> rates(kFlows, -1.0);
  std::vector<std::uint32_t> evens;
  std::vector<std::uint32_t> odds;
  for (std::uint32_t f = 0; f < kFlows; ++f) (f % 2 == 0 ? evens : odds).push_back(f);
  workspace.solveSubset(view, evens, rates);
  workspace.solveSubset(view, odds, rates);
  for (std::size_t f = 0; f < kFlows; ++f) {
    EXPECT_NEAR(rates[f], reference.rates[f],
                1e-9 * std::max(1.0, reference.rates[f]))
        << "flow " << f;
  }
}

TEST(SolverWorkspaceTest, IgnoresSlotsOutsideTheSubset) {
  // Stale (free) slots may carry garbage adjacency; only the named subset is
  // read.  Capacity 100, two live slots out of four.
  const std::vector<double> capacity{100.0};
  const std::vector<std::uint32_t> adjacency{0, 0, 0, 0};
  const std::vector<std::uint32_t> adjOffset{0, 1, 2, 3};
  const std::vector<std::uint32_t> adjLen{1, 0, 1, 0};  // slots 1/3 are free
  const std::vector<double> weight{1.0, 0.0, 3.0, -1.0};
  const std::vector<double> rateCap{0.0, 0.0, 0.0, 0.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  SolverWorkspace workspace;
  std::vector<double> rates(4, -7.0);
  const std::vector<std::uint32_t> subset{0, 2};
  workspace.solveSubset(view, subset, rates);
  EXPECT_NEAR(rates[0], 25.0, 1e-9);
  EXPECT_NEAR(rates[2], 75.0, 1e-9);
  EXPECT_DOUBLE_EQ(rates[1], -7.0);  // untouched
  EXPECT_DOUBLE_EQ(rates[3], -7.0);
}

}  // namespace
}  // namespace beesim::sim
