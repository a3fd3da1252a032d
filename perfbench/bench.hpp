// Shared declarations of the host-time benchmark (see README.md).
//
// A workload is a fixed campaign derived from --seed: a randomized-block
// protocol plan over single-run configurations (executed by
// harness::executeCampaign) plus, optionally, concurrent-application cases
// (harness::runConcurrent).  One *pass* executes the whole campaign once.
// The untraced leg runs passes through the harness exactly as the repo's
// benches do; the traced leg composes every run itself from the simulator's
// public API (traced.cpp) with spans around each module's calls.  Both legs
// digest every run's simulated outputs, so run.py can check them against
// each other and against the stored references.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "harness/protocol.hpp"
#include "harness/run.hpp"

namespace perfbench {

namespace harness = beesim::harness;

/// One runConcurrent experiment of a workload.
struct ConcurrentCase {
  harness::RunConfig base;
  std::vector<harness::AppSpec> apps;
  std::uint64_t seed = 0;
};

struct Workload {
  std::string name;
  std::vector<harness::CampaignEntry> entries;
  /// Summary group of each entry (the bandwidths stats::summarize pools);
  /// the concurrent cases form one more group after the last.
  std::vector<std::size_t> group;
  std::size_t groups = 0;
  harness::ProtocolOptions protocol;
  std::uint64_t campaignSeed = 0;
  /// The plan executeCampaign derives internally from campaignSeed; the
  /// traced leg walks it in the same order.
  std::vector<harness::PlannedRun> plan;
  std::vector<ConcurrentCase> concurrent;
};

/// Host time of the set-up steps that belong to a module.
struct SetupTiming {
  double topologySeconds = 0.0;  ///< topo::makePlafrim calls
  double planSeconds = 0.0;      ///< harness::buildProtocolPlan
};

/// Names accepted by buildWorkload, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// Settings applied to every single-run configuration of a workload, for
/// re-measuring the repo's committed claims (README.md).  Neither changes a
/// run's digest inputs except ε > 0, which may change simulated outputs.
struct Overrides {
  double epsilon = -1.0;     ///< >= 0 sets RunConfig::solverEpsilon
  bool utilization = false;  ///< sets RunConfig::observe.utilization
};

/// Build the named workload for `seed`.  Throws std::invalid_argument for an
/// unknown name.
Workload buildWorkload(const std::string& name, std::uint64_t seed, const Overrides& overrides,
                       SetupTiming& timing);

/// FNV-1a digest of a run's simulated outputs at full precision: every value
/// that reaches a campaign CSV row (bandwidth, metadata time, environment,
/// fault/mirror/hedge/gray/md/qos accounting) plus the allocation and the
/// per-rank completion times.  Host timings and solver work counters are
/// excluded, so a faster solver that simulates the same run digests equal.
std::uint64_t digestRun(const harness::RunRecord& record);
std::uint64_t digestConcurrent(const harness::ConcurrentResult& result);

/// Counters and host-time spans accumulated by the traced leg over a pass.
/// Runs execute on several threads, so times are summed thread-seconds.
struct LayerTotals {
  // Host seconds.
  double deploy = 0.0;     ///< Deployment + FileSystem constructors
  double compose = 0.0;    ///< controllers, QoS manager, fault injector set-up
  double launch = 0.0;     ///< launchIor / launchMdtest (incl. nested ones)
  double launchNested = 0.0;  ///< the part of `launch` issued inside the event loop
  double run = 0.0;        ///< the engine step loop
  double solve = 0.0;      ///< FluidSimulator::solveSeconds (inside `run`)
  double collect = 0.0;    ///< result snapshots after the drain
  double summarize = 0.0;  ///< stats::summarize over the campaign's results
  double runWall = 0.0;    ///< Σ wall of the traced runs (spans lie inside)
  // Simulated work.
  std::uint64_t events = 0;
  std::uint64_t resolves = 0;
  std::uint64_t deferredResolves = 0;
  std::uint64_t solverIterations = 0;
  std::uint64_t flowsStarted = 0;
  std::uint64_t flowsCompleted = 0;
  std::uint64_t flowsCancelled = 0;
  std::uint64_t flowsSolved = 0;  ///< Σ flows re-solved per resolve
  std::uint64_t hedgesIssued = 0;
  std::uint64_t hedgeWins = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t qosDeferrals = 0;
  std::uint64_t faultsInjected = 0;
  std::uint64_t mdOps = 0;
  std::uint64_t mdRuns = 0;
  double mdtImbalanceSum = 0.0;

  LayerTotals& operator+=(const LayerTotals& o);
};

/// runOnce, composed from FluidSimulator/Deployment/FileSystem/launchIor
/// with runOnce's rng draws, timing each module call into `layers`.
/// Throws std::invalid_argument for options it does not compose.
harness::RunRecord tracedRunOnce(const harness::RunConfig& config, std::uint64_t seed,
                                 LayerTotals& layers);

/// runConcurrent, composed the same way.
harness::ConcurrentResult tracedRunConcurrent(const harness::RunConfig& base,
                                              const std::vector<harness::AppSpec>& apps,
                                              std::uint64_t seed, LayerTotals& layers);

}  // namespace perfbench
