#include "harness/run.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "control/health.hpp"
#include "control/rebalance.hpp"
#include "core/metrics.hpp"
#include "sim/fluid.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace beesim::harness {

namespace {

/// Distill the tracer's per-resource integrals into the per-server split.
ior::RunUtilization measureUtilization(const sim::FlowTracer& tracer,
                                       const beegfs::Deployment& deployment,
                                       const ior::IorResult& result) {
  ior::RunUtilization util;
  util.active = true;
  const std::size_t hosts = deployment.cluster().hosts.size();
  const util::Seconds span = result.end - result.start;
  for (std::size_t h = 0; h < hosts; ++h) {
    const auto link = deployment.serverNicResource(h);
    util.serverMiB.push_back(tracer.resourceMiB(link));
    util.serverBusyFrac.push_back(span > 0.0 ? tracer.resourceBusyTime(link) / span : 0.0);
  }
  util.linkImbalance = core::linkImbalance(util.serverMiB);
  return util;
}

}  // namespace

RunRecord runOnce(const RunConfig& config, std::uint64_t seed) {
  return runOnce(config, seed, config.startAt);
}

RunRecord runOnce(const RunConfig& config, std::uint64_t seed, util::Seconds startAt) {
  const auto wallStart = std::chrono::steady_clock::now();
  if (config.mdtest && !config.fs.meta.queued) {
    throw util::ConfigError(
        "the mdtest metadata phase requires the queued metadata model "
        "(BeegfsParams::meta.queued; --mdts/--meta-rate on the CLI)");
  }
  util::Rng rng(seed);

  beegfs::EnvironmentFactors env;
  env.network = rng.logNormalMedian(1.0, config.noise.networkSigmaLog);
  env.storage = rng.logNormalMedian(1.0, config.noise.storageSigmaLog);

  sim::FluidSimulator fluid;
  if (config.solverEpsilon > 0.0) fluid.setSolverEpsilon(config.solverEpsilon);
  beegfs::Deployment deployment(fluid, config.cluster, config.fs, rng.split(), env);
  beegfs::FileSystem fs(deployment, rng.split());

  // Observability attaches *after* the system is built: the tracer composes
  // through addObserver and only reads events, so traced runs stay bitwise
  // identical to untraced ones (no extra rng splits, same event order).
  std::optional<sim::FlowTracer> tracer;
  if (config.observe.utilization) tracer.emplace(fluid);
  if (config.observe.profile) fluid.setProfiling(true);

  // The rebalance controller attaches its own tracer through the same
  // observer hub; with rebalancing off nothing is constructed, so default
  // runs keep their exact legacy bytes.
  std::optional<control::RebalanceController> rebalance;
  if (config.rebalance.enabled) rebalance.emplace(fs, config.rebalance);

  // Gray-failure detection: same contract -- the monitor (and its tracer)
  // exists only when enabled, so default runs keep their exact legacy bytes.
  std::optional<control::HealthMonitor> health;
  if (config.health.enabled) health.emplace(fs, config.health);

  // QoS: the whole job is one application (single-tenant limiter).  Same
  // contract as the controller -- nothing is constructed when disabled.
  std::optional<qos::QosManager> qosManager;
  if (config.qos.enabled) {
    qosManager.emplace(fluid, config.qos);
    qosManager->registerApp(qos::makeAppSpec(config.qos), config.job.nodeIds);
    fs.setQosManager(&*qosManager);
  }

  RunRecord record;
  record.seed = seed;
  record.environment = env;

  // Fault plan: materialize the schedule (stochastic events draw from a
  // dedicated split so the plan is a pure function of this run's seed, which
  // keeps parallel campaign executors row-identical to serial ones) and arm
  // the injector *before* launching the job -- the engine's FIFO tie-break
  // then applies a t=0 fault ahead of the job's first metadata operation.
  // The empty-plan path takes no splits, preserving legacy rng streams.
  std::optional<faults::FaultInjector> injector;
  if (!config.faults.empty()) {
    faults::FaultSchedule schedule = config.faults.schedule;
    if (config.faults.stochastic) {
      util::Rng faultRng = rng.split();
      const auto generated =
          faults::generateSchedule(*config.faults.stochastic, config.cluster.targetCount(),
                                   config.cluster.hosts.size(), faultRng);
      schedule.events.insert(schedule.events.end(), generated.events.begin(),
                             generated.events.end());
    }
    schedule.normalize(config.cluster.targetCount(), config.cluster.hosts.size());
    if (schedule.hasFailures() &&
        config.fs.faults.mode == beegfs::ClientFaultPolicy::Mode::kNone) {
      throw util::ConfigError(
          "fault schedule contains target/host failures but no client fault "
          "policy is set (BeegfsParams::faults.mode)");
    }
    injector.emplace(deployment, std::move(schedule));
    injector->arm(startAt);
    record.faultsActive = true;
  }

  bool finished = false;
  bool mdFinished = !config.mdtest.has_value();
  ior::launchIor(
      fs, config.job, config.ior, startAt,
      [&](const ior::IorResult& result) {
        record.ior = result;
        finished = true;
        // Freeze the controller the instant the job completes: in-flight
        // migrations drain, but their tail traffic cannot re-trigger it.
        if (rebalance) rebalance->disarm();
        if (health) health->disarm();
        // IO500-style phasing: the metadata benchmark follows the bandwidth
        // phase on the same deployment (the md phase moves no data, so the
        // frozen controllers see nothing anyway).
        if (config.mdtest) {
          ior::launchMdtest(fs, config.job, *config.mdtest, fluid.now(),
                            [&](const ior::MdtestResult& md) {
                              record.md = md;
                              mdFinished = true;
                            });
        }
      },
      config.pinnedTargets);
  fluid.run();
  BEESIM_ASSERT(finished, "benchmark run did not complete");
  BEESIM_ASSERT(mdFinished, "mdtest metadata phase did not complete");
  if (config.mdtest) record.mdActive = true;
  if (injector) record.injected = injector->stats();
  if (config.fs.mirror.enabled) {
    record.mirrorActive = true;
    // Background resync can outlive the job; re-snapshot after the drain so
    // post-job resync rounds count.  The file system is fresh per run, so
    // its totals equal this run's delta.
    record.ior.mirror = fs.mirrorStats();
  }
  if (rebalance) {
    rebalance->cancel();  // safety: the drained run left no active flows
    record.rebalanceActive = true;
    record.rebalance = rebalance->stats();
  }
  if (health) {
    record.healthActive = true;
    record.health = health->stats();
  }
  if (config.fs.hedge.enabled) {
    record.hedgeActive = true;
    // Quarantine switchovers can land after the job's completion snapshot;
    // the fresh-per-run file system makes its totals this run's delta.
    record.ior.hedge = fs.hedgeStats();
  }
  if (qosManager) {
    record.qosActive = true;
    record.qos = qosManager->stats();
    const auto slo = qos::sloRate(qosManager->appSpec(0));
    if (record.ior.bandwidth < config.qos.sloTolerance * slo) ++record.qos.sloViolations;
  }
  if (tracer) record.ior.util = measureUtilization(*tracer, deployment, record.ior);
  record.resolves = fluid.resolveCount();
  record.solverIterations = fluid.solverIterations();
  record.deferredResolves = fluid.deferredResolves();
  record.solveSeconds = fluid.solveSeconds();
  record.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
  return record;
}

}  // namespace beesim::harness
