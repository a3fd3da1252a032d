// The traced leg: harness::runOnce and harness::runConcurrent re-composed
// from the simulator's public API, with a host-time span around every call
// into a module and a counting FluidObserver on the fluid core.
//
// Faithfulness is the point: each function below makes runOnce's (resp.
// runConcurrent's) rng draws in the same order, builds the same objects in
// the same order and reads the same results, so for the same config and
// seed it must reproduce the untraced run bit for bit.  run.py checks that
// on every run by comparing digests.  The only intended differences are
// observational: the engine is stepped here (to count events), the solver
// profiles itself, and one more observer listens on the hub.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "control/health.hpp"
#include "control/rebalance.hpp"
#include "faults/injector.hpp"
#include "ior/mdtest.hpp"
#include "ior/runner.hpp"
#include "qos/manager.hpp"
#include "sim/fluid.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace beegfs = beesim::beegfs;
namespace control = beesim::control;
namespace faults = beesim::faults;
namespace ior = beesim::ior;
namespace qos = beesim::qos;
namespace sim = beesim::sim;
namespace util = beesim::util;
using Clock = std::chrono::steady_clock;

/// Adds the wall time of its lifetime to `sink`.
class Span {
 public:
  explicit Span(double& sink) : sink_(sink) {}
  ~Span() { sink_ += std::chrono::duration<double>(Clock::now() - start_).count(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& sink_;
  Clock::time_point start_ = Clock::now();
};

/// Counts flow lifecycle events and the flows re-solved per resolve.
class CountingObserver final : public sim::FluidObserver {
 public:
  explicit CountingObserver(LayerTotals& layers) : layers_(layers) {}

  void onFlowStarted(sim::FlowId, std::span<const sim::ResourceIndex>, util::Bytes,
                     sim::SimTime) override {
    ++layers_.flowsStarted;
  }
  void onRatesSolved(sim::SimTime, std::span<const sim::FlowId> ids,
                     std::span<const util::MiBps>, std::size_t) override {
    layers_.flowsSolved += ids.size();
  }
  void onFlowCompleted(const sim::FlowStats&) override { ++layers_.flowsCompleted; }
  void onFlowCancelled(const sim::FlowStats&) override { ++layers_.flowsCancelled; }

 private:
  LayerTotals& layers_;
};

void rejectUntraceable(const harness::RunConfig& config) {
  if (config.observe.utilization || config.observe.profile) {
    throw std::invalid_argument("the traced leg does not compose run observability options");
  }
}

/// The engine loop of FluidSimulator::run, stepped here to count events.
/// run() afterwards finds the queue empty and keeps its deadlock check.
void stepToDrain(sim::FluidSimulator& fluid, LayerTotals& layers) {
  Span span(layers.run);
  std::uint64_t events = 0;
  while (fluid.engine().step()) ++events;
  fluid.run();
  layers.events += events;
}

/// The fault plan exactly as runOnce/runConcurrent materialize it.
void armFaults(const harness::RunConfig& config, beegfs::Deployment& deployment,
               util::Rng& rng, std::optional<faults::FaultInjector>& injector) {
  if (config.faults.empty()) return;
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
  if (schedule.hasFailures() && config.fs.faults.mode == beegfs::ClientFaultPolicy::Mode::kNone) {
    throw util::ConfigError(
        "fault schedule contains target/host failures but no client fault "
        "policy is set (BeegfsParams::faults.mode)");
  }
  injector.emplace(deployment, std::move(schedule));
  injector->arm(config.startAt);
}

void requireQueuedMeta(const harness::RunConfig& config) {
  if (config.mdtest && !config.fs.meta.queued) {
    throw util::ConfigError(
        "the mdtest metadata phase requires the queued metadata model "
        "(BeegfsParams::meta.queued; --mdts/--meta-rate on the CLI)");
  }
}

void countSolver(const sim::FluidSimulator& fluid, LayerTotals& layers) {
  layers.resolves += fluid.resolveCount();
  layers.solverIterations += fluid.solverIterations();
  layers.deferredResolves += fluid.deferredResolves();
  layers.solve += fluid.solveSeconds();
}

void countIor(const ior::IorResult& result, LayerTotals& layers) {
  layers.retries += result.faults.retries;
  layers.failovers += result.faults.failovers;
}

void countMd(const ior::MdtestResult& md, LayerTotals& layers) {
  layers.mdOps += md.totalOps;
  layers.mdtImbalanceSum += md.mdtImbalance;
  ++layers.mdRuns;
}

}  // namespace

harness::RunRecord tracedRunOnce(const harness::RunConfig& config, std::uint64_t seed,
                                 LayerTotals& layers) {
  const auto wallStart = Clock::now();
  rejectUntraceable(config);
  requireQueuedMeta(config);
  util::Rng rng(seed);

  beegfs::EnvironmentFactors env;
  env.network = rng.logNormalMedian(1.0, config.noise.networkSigmaLog);
  env.storage = rng.logNormalMedian(1.0, config.noise.storageSigmaLog);

  sim::FluidSimulator fluid;
  if (config.solverEpsilon > 0.0) fluid.setSolverEpsilon(config.solverEpsilon);
  std::optional<beegfs::Deployment> deployment;
  std::optional<beegfs::FileSystem> fs;
  {
    Span span(layers.deploy);
    deployment.emplace(fluid, config.cluster, config.fs, rng.split(), env);
    fs.emplace(*deployment, rng.split());
  }
  CountingObserver counter(layers);
  fluid.addObserver(&counter);
  fluid.setProfiling(true);

  harness::RunRecord record;
  std::optional<control::RebalanceController> rebalance;
  std::optional<control::HealthMonitor> health;
  std::optional<qos::QosManager> qosManager;
  std::optional<faults::FaultInjector> injector;
  {
    Span span(layers.compose);
    if (config.rebalance.enabled) rebalance.emplace(*fs, config.rebalance);
    if (config.health.enabled) health.emplace(*fs, config.health);
    if (config.qos.enabled) {
      qosManager.emplace(fluid, config.qos);
      qosManager->registerApp(qos::makeAppSpec(config.qos), config.job.nodeIds);
      fs->setQosManager(&*qosManager);
    }
    record.seed = seed;
    record.environment = env;
    armFaults(config, *deployment, rng, injector);
    record.faultsActive = injector.has_value();
  }

  bool finished = false;
  bool mdFinished = !config.mdtest.has_value();
  {
    Span span(layers.launch);
    ior::launchIor(
        *fs, config.job, config.ior, config.startAt,
        [&](const ior::IorResult& result) {
          record.ior = result;
          finished = true;
          if (rebalance) rebalance->disarm();
          if (health) health->disarm();
          if (config.mdtest) {
            Span nested(layers.launchNested);
            ior::launchMdtest(*fs, config.job, *config.mdtest, fluid.now(),
                              [&](const ior::MdtestResult& md) {
                                record.md = md;
                                mdFinished = true;
                              });
          }
        },
        config.pinnedTargets);
  }
  stepToDrain(fluid, layers);

  {
    Span span(layers.collect);
    BEESIM_ASSERT(finished, "benchmark run did not complete");
    BEESIM_ASSERT(mdFinished, "mdtest metadata phase did not complete");
    if (config.mdtest) record.mdActive = true;
    if (injector) record.injected = injector->stats();
    if (config.fs.mirror.enabled) {
      record.mirrorActive = true;
      record.ior.mirror = fs->mirrorStats();
    }
    if (rebalance) {
      rebalance->cancel();
      record.rebalanceActive = true;
      record.rebalance = rebalance->stats();
    }
    if (health) {
      record.healthActive = true;
      record.health = health->stats();
    }
    if (config.fs.hedge.enabled) {
      record.hedgeActive = true;
      record.ior.hedge = fs->hedgeStats();
    }
    if (qosManager) {
      record.qosActive = true;
      record.qos = qosManager->stats();
      const auto slo = qos::sloRate(qosManager->appSpec(0));
      if (record.ior.bandwidth < config.qos.sloTolerance * slo) ++record.qos.sloViolations;
    }
    record.resolves = fluid.resolveCount();
    record.solverIterations = fluid.solverIterations();
    record.deferredResolves = fluid.deferredResolves();
    record.solveSeconds = fluid.solveSeconds();
  }
  fluid.removeObserver(&counter);

  countSolver(fluid, layers);
  countIor(record.ior, layers);
  layers.hedgesIssued += record.ior.hedge.hedgesIssued;
  layers.hedgeWins += record.ior.hedge.hedgeWins;
  layers.quarantines += record.health.quarantines;
  layers.qosDeferrals += record.qos.deferrals;
  layers.faultsInjected += record.injected.total();
  if (record.mdActive) countMd(record.md, layers);
  record.wallSeconds = std::chrono::duration<double>(Clock::now() - wallStart).count();
  return record;
}

harness::ConcurrentResult tracedRunConcurrent(const harness::RunConfig& base,
                                              const std::vector<harness::AppSpec>& apps,
                                              std::uint64_t seed, LayerTotals& layers) {
  rejectUntraceable(base);
  BEESIM_ASSERT(!apps.empty(), "concurrent experiment needs >= 1 application");
  std::set<std::size_t> seenNodes;
  for (const auto& app : apps) {
    for (const auto node : app.job.nodeIds) {
      if (!seenNodes.insert(node).second) {
        throw util::ConfigError("concurrent applications must not share compute nodes");
      }
    }
    if (!std::isfinite(app.startOffset) || app.startOffset < 0.0) {
      throw util::ConfigError("AppSpec::startOffset must be finite and >= 0");
    }
    if (app.qos && !base.qos.enabled) {
      throw util::ConfigError("per-app QoS specs require an enabled base QoS policy");
    }
  }
  requireQueuedMeta(base);

  util::Rng rng(seed);
  beegfs::EnvironmentFactors env;
  env.network = rng.logNormalMedian(1.0, base.noise.networkSigmaLog);
  env.storage = rng.logNormalMedian(1.0, base.noise.storageSigmaLog);

  // runConcurrent never arms ε-deferral; neither does this.
  sim::FluidSimulator fluid;
  std::optional<beegfs::Deployment> deployment;
  std::optional<beegfs::FileSystem> fs;
  {
    Span span(layers.deploy);
    deployment.emplace(fluid, base.cluster, base.fs, rng.split(), env);
    fs.emplace(*deployment, rng.split());
  }
  CountingObserver counter(layers);
  fluid.addObserver(&counter);
  fluid.setProfiling(true);

  harness::ConcurrentResult result;
  std::optional<control::RebalanceController> rebalance;
  std::optional<control::HealthMonitor> health;
  std::optional<qos::QosManager> qosManager;
  std::optional<faults::FaultInjector> injector;
  {
    Span span(layers.compose);
    if (base.rebalance.enabled) rebalance.emplace(*fs, base.rebalance);
    if (base.health.enabled) health.emplace(*fs, base.health);
    if (base.qos.enabled) {
      qosManager.emplace(fluid, base.qos);
      for (const auto& app : apps) {
        qosManager->registerApp(app.qos ? *app.qos : qos::makeAppSpec(base.qos),
                                app.job.nodeIds);
      }
      fs->setQosManager(&*qosManager);
    }
    result.seed = seed;
    result.environment = env;
    result.apps.resize(apps.size());
    armFaults(base, *deployment, rng, injector);
    result.faultsActive = injector.has_value();
  }

  std::size_t remaining = apps.size();
  std::size_t mdRemaining = base.mdtest ? apps.size() : 0;
  if (base.mdtest) result.appMd.resize(apps.size());
  {
    Span span(layers.launch);
    for (std::size_t a = 0; a < apps.size(); ++a) {
      auto options = apps[a].ior;
      options.testFile += ".app" + std::to_string(a);
      ior::launchIor(
          *fs, apps[a].job, options, base.startAt + apps[a].startOffset,
          [&, a](const ior::IorResult& r) {
            result.apps[a] = r;
            if (--remaining == 0) {
              if (rebalance) rebalance->disarm();
              if (health) health->disarm();
            }
            if (base.mdtest) {
              Span nested(layers.launchNested);
              auto mdOptions = *base.mdtest;
              mdOptions.dir += ".app" + std::to_string(a);
              ior::launchMdtest(*fs, apps[a].job, mdOptions, fluid.now(),
                                [&result, &mdRemaining, a](const ior::MdtestResult& md) {
                                  result.appMd[a] = md;
                                  --mdRemaining;
                                });
            }
          },
          apps[a].pinnedTargets);
    }
  }
  stepToDrain(fluid, layers);

  {
    Span span(layers.collect);
    BEESIM_ASSERT(remaining == 0, "a concurrent application did not complete");
    BEESIM_ASSERT(mdRemaining == 0, "a concurrent mdtest phase did not complete");
    if (base.mdtest) {
      result.mdActive = true;
      result.md = ior::aggregateMdtest(result.appMd);
    }
    if (rebalance) {
      rebalance->cancel();
      result.rebalanceActive = true;
      result.rebalance = rebalance->stats();
    }
    if (health) {
      result.healthActive = true;
      result.health = health->stats();
    }
    if (base.fs.hedge.enabled) {
      result.hedgeActive = true;
      result.hedge = fs->hedgeStats();
    }
    if (injector) result.injected = injector->stats();
    if (qosManager) {
      result.qosActive = true;
      result.qos = qosManager->stats();
      for (std::size_t a = 0; a < apps.size(); ++a) {
        if (result.apps[a].totalBytes == 0) continue;
        const auto slo = qos::sloRate(qosManager->appSpec(a));
        if (result.apps[a].bandwidth < base.qos.sloTolerance * slo) ++result.qos.sloViolations;
      }
    }
    result.aggregateBandwidth = harness::aggregateBandwidth(result.apps);
    std::map<std::size_t, int> owners;
    for (const auto& app : result.apps) {
      for (const auto target : app.targetsUsed) ++owners[target];
    }
    result.distinctTargets = owners.size();
    result.sharedTargets = static_cast<std::size_t>(std::count_if(
        owners.begin(), owners.end(), [](const auto& kv) { return kv.second >= 2; }));
  }
  fluid.removeObserver(&counter);

  countSolver(fluid, layers);
  for (const auto& app : result.apps) countIor(app, layers);
  layers.hedgesIssued += result.hedge.hedgesIssued;
  layers.hedgeWins += result.hedge.hedgeWins;
  layers.quarantines += result.health.quarantines;
  layers.qosDeferrals += result.qos.deferrals;
  layers.faultsInjected += result.injected.total();
  if (result.mdActive) countMd(result.md, layers);
  return result;
}

}  // namespace perfbench
