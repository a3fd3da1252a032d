// Single-experiment execution: one IOR run on a freshly booted simulated
// system, under sampled environment noise.
//
// Each repetition builds its own FluidSimulator + Deployment + FileSystem so
// no state leaks between runs -- the simulated analogue of the paper's
// protocol choice to avoid warm-up and caching effects (Section III-B/C).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "beegfs/params.hpp"
#include "control/health.hpp"
#include "control/rebalance.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "ior/mdtest.hpp"
#include "ior/options.hpp"
#include "ior/runner.hpp"
#include "qos/manager.hpp"
#include "topology/cluster.hpp"

namespace beesim::sim {
class FluidSimulator;
}

namespace beesim::beegfs {
class Deployment;
}

namespace beesim::harness {

struct RunRecord;

/// A caller-owned look into one run's live system: the flow trace export of
/// `beesim run --trace/--trace-out/--metrics-out` attaches through it, so
/// the trace shows exactly the run the campaign reports (noise, faults,
/// QoS, controllers and all).  Observers only read events, so a probed run
/// is bitwise identical to an unprobed one.
class RunProbe {
 public:
  RunProbe() = default;
  RunProbe(const RunProbe&) = delete;
  RunProbe& operator=(const RunProbe&) = delete;
  virtual ~RunProbe() = default;
  /// The system is built; no fault is armed and the job has not launched.
  virtual void attach(sim::FluidSimulator& fluid, const beegfs::Deployment& deployment) = 0;
  /// The run drained and `record` is complete.
  virtual void finish(const RunRecord& record) = 0;
  /// The last call for an attached run, also when the run throws, and
  /// while the simulator still exists: detach what attach attached.
  virtual void detach() = 0;
};

/// Per-run environment noise: the "mood" of the production system, sampled
/// once per repetition as log-normal factors on network links and storage
/// devices.
struct NoiseSpec {
  double networkSigmaLog = 0.015;
  double storageSigmaLog = 0.04;
};

/// Per-run observability switches.  All default off: a run with the
/// defaults attaches no observer and never calls the host clock, so the
/// fluid core's hot path is untouched (and campaign CSVs keep their exact
/// legacy bytes).
struct ObservabilityOptions {
  /// Attach a FlowTracer for the run's lifetime and fill
  /// IorResult::util with the measured per-server traffic split.
  bool utilization = false;
  /// Measure solver wall time (FluidSimulator::setProfiling) and per-run
  /// wall time into RunRecord.
  bool profile = false;
  /// Caller-owned probe of the run's live system (null: none).  Must
  /// outlive the run; one probe serves one run at a time.
  RunProbe* probe = nullptr;
};

/// Everything needed to execute one benchmark run.
struct RunConfig {
  topo::ClusterConfig cluster;
  beegfs::BeegfsParams fs;
  ior::IorJob job;
  ior::IorOptions ior;
  /// Bypass the target chooser with an explicit allocation (N-1 only).
  std::optional<std::vector<std::size_t>> pinnedTargets;
  NoiseSpec noise;
  /// Virtual system time at which the run starts (the protocol spaces runs
  /// out in time so device-noise epochs differ; see protocol.hpp).
  util::Seconds startAt = 0.0;
  /// Mid-run fault injection: explicit events (relative to startAt) and/or a
  /// stochastic MTTF/MTTR generator.  An empty plan leaves the run bitwise
  /// identical to pre-fault-model builds (no extra rng splits, no watchdogs).
  /// Schedules with target/host failures require fs.faults.mode != kNone.
  faults::FaultPlan faults;
  /// Run-level observability (utilization measurement, profiling).
  ObservabilityOptions observe;
  /// Closed-loop rebalancing (DESIGN.md §2.6).  Disabled by default: the
  /// controller is then never constructed and the run stays bitwise
  /// identical to pre-controller builds.
  control::RebalancePolicy rebalance;
  /// Gray-failure detection (DESIGN.md §2.9).  Disabled by default: the
  /// monitor is then never constructed and the run stays bitwise identical
  /// to pre-monitor builds.
  control::HealthPolicy health;
  /// Multi-tenant QoS (DESIGN.md §2.8).  Disabled by default: the manager is
  /// then never constructed and the run stays bitwise identical to
  /// pre-QoS builds.  runOnce registers the whole job as one application at
  /// qos.rate/qos.burst; runConcurrent registers one app per AppSpec.
  qos::QosPolicy qos;
  /// mdtest-style metadata phase appended after the IOR job completes (the
  /// IO500's bw-then-md shape; DESIGN.md §2.10).  Requires the queued
  /// metadata model (fs.meta.queued).  Unset leaves the run bitwise
  /// identical to md-free builds.
  std::optional<ior::MdtestOptions> mdtest;
  /// ε bound for the fluid core's deferred re-solves (DESIGN.md §2.7).
  /// 0 (the default) is the exact path -- bitwise identical to pre-ε builds;
  /// > 0 lets every flow's rate lag the exact max-min solution by at most
  /// this many MiB/s between structural events.
  double solverEpsilon = 0.0;
};

struct RunRecord {
  ior::IorResult ior;
  beegfs::EnvironmentFactors environment;
  std::uint64_t seed = 0;
  /// True when this run had a fault plan armed (campaign rows then carry the
  /// fault_* metric columns).
  bool faultsActive = false;
  /// True when the run used storage mirroring (campaign rows then carry the
  /// mirror_* / resync_* metric columns).
  bool mirrorActive = false;
  /// What the injector fired (zeroed when !faultsActive).
  faults::InjectorStats injected;
  /// True when the rebalance controller ran (campaign rows then carry the
  /// rebal_* metric columns).
  bool rebalanceActive = false;
  /// What the controller did (zeroed when !rebalanceActive).
  control::RebalanceStats rebalance;
  /// True when the gray-failure health monitor ran (campaign rows then
  /// carry the gray_* metric columns).
  bool healthActive = false;
  /// What the monitor observed/did (zeroed when !healthActive).
  control::HealthStats health;
  /// True when hedged writes were enabled (campaign rows then carry the
  /// hedge_* metric columns; the counters live in ior.hedge).
  bool hedgeActive = false;
  /// True when an mdtest metadata phase ran (campaign rows then carry the
  /// md_* metric columns).
  bool mdActive = false;
  /// What the metadata phase measured (zeroed when !mdActive).
  ior::MdtestResult md;
  /// True when the QoS manager ran (campaign rows then carry the qos_*
  /// metric columns).
  bool qosActive = false;
  /// What the QoS layer did (zeroed when !qosActive).
  qos::QosStats qos;
  /// Solver work done by this run (always filled; the counters are free).
  std::size_t resolves = 0;
  std::size_t solverIterations = 0;
  /// Component re-solves skipped under the ε bound (0 on the exact path).
  std::size_t deferredResolves = 0;
  /// Host wall-clock cost of the run; solveSeconds stays 0 unless
  /// observe.profile is on (the solver never reads the clock otherwise).
  double wallSeconds = 0.0;
  double solveSeconds = 0.0;
};

/// Execute one run to completion.  Deterministic given (config, seed).
RunRecord runOnce(const RunConfig& config, std::uint64_t seed);

/// The same run started at `startAt` instead of config.startAt, so campaign
/// executors can reuse one configuration for every planned run without
/// copying it.
RunRecord runOnce(const RunConfig& config, std::uint64_t seed, util::Seconds startAt);

}  // namespace beesim::harness
