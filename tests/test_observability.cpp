// The run-level observability pipeline end to end: observer fan-out through
// ObserverHub, the FlowTracer's metrics series and Chrome-trace export, and
// the utilization/profiling data flowing up into campaign rows and totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "faults/schedule.hpp"
#include "harness/campaign.hpp"
#include "harness/run.hpp"
#include "ior/options.hpp"
#include "sim/fluid.hpp"
#include "sim/observer_hub.hpp"
#include "sim/trace.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace beesim::sim {
namespace {

using namespace beesim::util::literals;

struct CountingObserver final : FluidObserver {
  int started = 0;
  int solved = 0;
  int completed = 0;
  int cancelled = 0;
  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes,
                     SimTime) override {
    ++started;
  }
  void onRatesSolved(SimTime, std::span<const FlowId>, std::span<const util::MiBps>,
                     std::size_t) override {
    ++solved;
  }
  void onFlowCompleted(const FlowStats&) override { ++completed; }
  void onFlowCancelled(const FlowStats&) override { ++cancelled; }
};

/// Removes itself from the simulator on the first flow start -- exercises
/// mutation of the hub's observer list mid-dispatch.
struct SelfRemovingObserver final : FluidObserver {
  explicit SelfRemovingObserver(FluidSimulator& fluid) : fluid_(fluid) {}
  int started = 0;
  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes,
                     SimTime) override {
    ++started;
    fluid_.removeObserver(this);
  }
  void onRatesSolved(SimTime, std::span<const FlowId>, std::span<const util::MiBps>,
                     std::size_t) override {}
  void onFlowCompleted(const FlowStats&) override {}

 private:
  FluidSimulator& fluid_;
};

void runOneFlow(FluidSimulator& fluid, ResourceIndex link) {
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
}

TEST(ObserverHub, FansOutToEveryObserverInAttachmentOrder) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver a;
  CountingObserver b;
  fluid.addObserver(&a);
  fluid.addObserver(&b);
  runOneFlow(fluid, link);

  EXPECT_EQ(a.started, 1);
  EXPECT_EQ(b.started, 1);
  EXPECT_EQ(a.completed, 1);
  EXPECT_EQ(b.completed, 1);
  EXPECT_GT(a.solved, 0);
  EXPECT_EQ(a.solved, b.solved);
}

TEST(ObserverHub, RemoveDetachesOnlyThatObserver) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver a;
  CountingObserver b;
  fluid.addObserver(&a);
  fluid.addObserver(&b);
  fluid.removeObserver(&a);
  // Removing an observer that is not attached is a no-op.
  CountingObserver stranger;
  fluid.removeObserver(&stranger);
  runOneFlow(fluid, link);

  EXPECT_EQ(a.started, 0);
  EXPECT_EQ(b.started, 1);
}

TEST(ObserverHub, SelfRemovalDuringDispatchIsSafe) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  SelfRemovingObserver quitter(fluid);
  CountingObserver survivor;
  fluid.addObserver(&quitter);
  fluid.addObserver(&survivor);
  runOneFlow(fluid, link);
  runOneFlow(fluid, link);

  EXPECT_EQ(quitter.started, 1);  // only the first flow
  EXPECT_EQ(survivor.started, 2);
}

TEST(ObserverHub, DuplicateAddIsIgnored) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver a;
  fluid.addObserver(&a);
  fluid.addObserver(&a);
  runOneFlow(fluid, link);
  EXPECT_EQ(a.started, 1);
}

TEST(Tracer, DoesNotClobberEarlierObserver) {
  // Regression: the FlowTracer constructor once took the simulator's single
  // observer slot and silently disconnected whatever was installed before it.
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver first;
  fluid.addObserver(&first);
  FlowTracer tracer(fluid);
  tracer.enableEventLog();
  runOneFlow(fluid, link);

  EXPECT_EQ(first.started, 1);
  EXPECT_FALSE(tracer.events().empty());
}

TEST(Tracer, DestructionDetachesOnlyItself) {
  // Regression: the FlowTracer destructor once cleared the simulator's
  // observer slot and tore down observers installed *after* it.
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  auto tracer = std::make_unique<FlowTracer>(fluid);
  CountingObserver later;
  fluid.addObserver(&later);
  tracer.reset();
  runOneFlow(fluid, link);

  EXPECT_EQ(later.started, 1);
  EXPECT_EQ(later.completed, 1);
}

TEST(Tracer, IdleResourcesReportZeroRows) {
  // Regression: resourceUsage() only covered resources that ever saw a
  // nonzero rate, so idle links/OSTs were missing from the report.
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto busy = fluid.addResource(ResourceSpec{"busy", constantCapacity(100.0)});
  const auto idle = fluid.addResource(ResourceSpec{"idle", constantCapacity(100.0)});
  (void)idle;
  runOneFlow(fluid, busy);

  const auto usage = tracer.resourceUsage();
  ASSERT_EQ(usage.size(), fluid.resourceCount());
  EXPECT_EQ(usage[1].name, "idle");
  EXPECT_EQ(usage[1].mib, 0.0);
  EXPECT_EQ(usage[1].busyTime, 0.0);
  EXPECT_EQ(usage[1].peakRate, 0.0);
  EXPECT_GT(usage[0].mib, 0.0);
}

TEST(Tracer, MetricsSeriesSamplesRatesAndImbalance) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto a = fluid.addResource(ResourceSpec{"a", constantCapacity(10.0)});
  const auto b = fluid.addResource(ResourceSpec{"b", constantCapacity(10.0)});
  tracer.setMetricsInterval(1.0);
  tracer.trackLink(a, "linkA");
  tracer.trackLink(b, "linkB");
  // One 10 s flow through a only: every sample sees 10 MiB/s on linkA, 0 on
  // linkB, so the imbalance index is exactly 2 (all traffic on one of two).
  fluid.startFlow(FlowSpec{.path = {a}, .bytes = 100_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  ASSERT_EQ(tracer.samples().size(), 10u);  // t = 1..10
  for (const auto& sample : tracer.samples()) {
    EXPECT_EQ(sample.activeFlows, 1u);
    EXPECT_NEAR(sample.aggregateRate, 10.0, 1e-9);
    ASSERT_EQ(sample.linkRates.size(), 2u);
    EXPECT_NEAR(sample.linkRates[0], 10.0, 1e-9);
    EXPECT_NEAR(sample.linkRates[1], 0.0, 1e-9);
    EXPECT_NEAR(sample.linkImbalance, 2.0, 1e-9);
  }
  EXPECT_NEAR(tracer.samples().front().time, 1.0, 1e-12);
  EXPECT_NEAR(tracer.samples().back().time, 10.0, 1e-12);
}

TEST(Tracer, MetricsCsvHasHeaderAndOneRowPerSample) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  tracer.setMetricsInterval(0.5);
  tracer.trackLink(link, "linkA");
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 20_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  const auto csv = tracer.metricsCsv();
  std::istringstream lines(csv);
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header, "t,active_flows,aggregate_mibps,link_imbalance,linkA");
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, tracer.samples().size());
}

TEST(Tracer, ChromeTraceRoundTripsThroughJsonParser) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  tracer.enableEventLog();
  const auto link = fluid.addResource(ResourceSpec{"srv \"0\"", constantCapacity(10.0)});
  tracer.setMetricsInterval(0.5);
  tracer.trackLink(link, "srv \"0\"");  // name needing JSON escaping
  const auto id = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.run();

  const auto doc = util::parseJson(tracer.toChromeTrace());
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().at("ph").asString(), "M");
  bool sawBegin = false;
  bool sawEnd = false;
  bool sawCounter = false;
  for (const auto& event : events) {
    const auto& ph = event.at("ph").asString();
    if (ph == "b" && event.at("id").asNumber() == static_cast<double>(id.value)) {
      sawBegin = true;
      EXPECT_EQ(event.at("args").at("bytes").asNumber(),
                static_cast<double>(10_MiB));
    }
    if (ph == "e") sawEnd = true;
    if (ph == "C" && event.at("name").asString() == "link_mibps") {
      sawCounter = true;
      EXPECT_TRUE(event.at("args").has("srv \"0\""));
    }
  }
  EXPECT_TRUE(sawBegin);
  EXPECT_TRUE(sawEnd);
  EXPECT_TRUE(sawCounter);
}

TEST(Tracer, WriteChromeTraceAndMetricsToFiles) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  tracer.enableEventLog();
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  tracer.setMetricsInterval(0.5);
  tracer.trackLink(link, "link");
  runOneFlow(fluid, link);

  const auto dir = std::filesystem::temp_directory_path();
  const auto tracePath = dir / "beesim_obs_trace.json";
  const auto metricsPath = dir / "beesim_obs_metrics.csv";
  tracer.writeChromeTrace(tracePath);
  tracer.writeMetricsCsv(metricsPath);
  EXPECT_GT(std::filesystem::file_size(tracePath), 0u);
  EXPECT_GT(std::filesystem::file_size(metricsPath), 0u);
  // The file round-trips through the JSON parser too.
  std::ifstream in(tracePath);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(util::parseJson(buffer.str()).isObject());
  std::filesystem::remove(tracePath);
  std::filesystem::remove(metricsPath);
}

}  // namespace
}  // namespace beesim::sim

namespace beesim::harness {
namespace {

using namespace beesim::util::literals;

RunConfig smallConfig() {
  RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 2);
  config.fs.defaultStripe.stripeCount = 4;
  config.job = ior::IorJob::onFirstNodes(2, 8);
  config.ior.blockSize = ior::blockSizeForTotal(2_GiB, config.job.ranks());
  return config;
}

TEST(Observability, UtilizationFillsPerServerSplit) {
  auto config = smallConfig();
  config.pinnedTargets = std::vector<std::size_t>{0, 4, 5, 6};  // (1,3)
  config.observe.utilization = true;
  const auto record = runOnce(config, 11);

  ASSERT_TRUE(record.ior.util.active);
  ASSERT_EQ(record.ior.util.serverMiB.size(), 2u);
  const double total = record.ior.util.serverMiB[0] + record.ior.util.serverMiB[1];
  EXPECT_NEAR(total, util::toMiB(record.ior.totalBytes), total * 1e-6);
  EXPECT_NEAR(record.ior.util.serverMiB[1] / total, 0.75, 1e-6);
  EXPECT_NEAR(record.ior.util.linkImbalance, 1.5, 1e-6);
  EXPECT_GT(record.ior.util.serverBusyFrac[1], record.ior.util.serverBusyFrac[0]);
  EXPECT_LE(record.ior.util.serverBusyFrac[1], 1.0 + 1e-9);
}

TEST(Observability, TracedRunsMatchUntracedBitwise) {
  auto plain = smallConfig();
  auto traced = smallConfig();
  traced.observe.utilization = true;
  traced.observe.profile = true;
  const auto a = runOnce(plain, 7);
  const auto b = runOnce(traced, 7);
  EXPECT_DOUBLE_EQ(a.ior.bandwidth, b.ior.bandwidth);
  EXPECT_DOUBLE_EQ(a.ior.end, b.ior.end);
  EXPECT_EQ(a.resolves, b.resolves);
  // Only the profiled run pays for (and reports) solver wall time.
  EXPECT_EQ(a.solveSeconds, 0.0);
  EXPECT_GT(b.solveSeconds, 0.0);
}

/// Attaches a FlowTracer to the probed run and keeps what it saw.
class TracingProbe final : public RunProbe {
 public:
  void attach(sim::FluidSimulator& fluid, const beegfs::Deployment&) override {
    tracer_.emplace(fluid);
    tracer_->enableEventLog();
  }
  void finish(const RunRecord& record) override {
    for (const auto& event : tracer_->events()) {
      if (event.kind == sim::TraceEvent::Kind::kCancel) ++cancels;
    }
    finishedRecord = record;
  }
  void detach() override {
    tracer_.reset();
    ++detaches;
  }

  std::size_t cancels = 0;
  std::size_t detaches = 0;
  std::optional<RunRecord> finishedRecord;

 private:
  std::optional<sim::FlowTracer> tracer_;
};

/// Runs `config` as a 3-rep campaign and returns rep 0's record, then reruns
/// rep 0 through runOnce with `probe` attached and returns that record.
std::pair<RunRecord, RunRecord> campaignRep0AndProbedRerun(const RunConfig& config,
                                                           RunProbe& probe) {
  std::vector<CampaignEntry> entries(1);
  entries[0].config = config;
  ProtocolOptions protocol;
  protocol.repetitions = 3;
  constexpr std::uint64_t kSeed = 21;
  std::optional<RunRecord> rep0;
  ExecutorOptions exec;
  exec.jobs = 1;
  (void)executeCampaign(
      entries, protocol, kSeed,
      [&](const RunRecord& record, ResultRow& row) {
        if (row.factors.at("rep") == "0") rep0 = record;
      },
      exec);
  EXPECT_TRUE(rep0.has_value());

  util::Rng planRng(kSeed);
  const auto plan = buildProtocolPlan(entries.size(), protocol, planRng);
  const auto first = std::find_if(plan.begin(), plan.end(),
                                  [](const PlannedRun& p) { return p.repetition == 0; });
  EXPECT_NE(first, plan.end());
  auto probed = config;
  probed.observe.probe = &probe;
  return {rep0.value_or(RunRecord{}), runOnce(probed, first->seed, first->systemTime)};
}

TEST(Observability, ProbedRunReproducesCampaignRepUnderEveryLayer) {
  // The probed rerun of rep 0 must be that rep -- same noise draw, fault
  // plan, controllers and metadata phase -- bit for bit, whichever opt-in
  // layers run.
  // Each variant with a check that its layer actually engaged.
  using Engaged = bool (*)(const RunRecord&);
  std::vector<std::tuple<std::string, RunConfig, Engaged>> variants;
  auto crash = smallConfig();
  crash.faults.schedule = faults::parseSchedule("off:h1@1");
  crash.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  variants.emplace_back("host crash", crash,
                        [](const RunRecord& r) { return r.ior.faults.failovers > 0; });
  auto mirror = crash;
  mirror.fs.mirror.enabled = true;
  mirror.fs.defaultStripe.mirror = true;
  variants.emplace_back("mirrored host crash", mirror,
                        [](const RunRecord& r) { return r.ior.mirror.failovers > 0; });
  auto gray = smallConfig();
  gray.faults.schedule = faults::parseSchedule("slow:t4@0.5=0.05");
  gray.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  gray.fs.hedge.enabled = true;
  gray.health.enabled = true;
  gray.qos.enabled = true;
  gray.qos.rate = 800.0;
  variants.emplace_back("fail-slow, health, hedge, qos", gray, [](const RunRecord& r) {
    return r.health.samples > 0 && r.ior.hedge.hedgesIssued > 0 && r.qos.tokensIssued > 0;
  });
  auto rebalance = smallConfig();
  rebalance.pinnedTargets = std::vector<std::size_t>{0, 4, 5, 6};  // (1,3)
  rebalance.rebalance.enabled = true;
  variants.emplace_back("pinned (1,3) + rebalance", rebalance,
                        [](const RunRecord& r) { return r.rebalance.triggers > 0; });
  auto md = smallConfig();
  md.fs.meta.queued = true;
  md.fs.meta.mdtCount = 2;
  md.mdtest = ior::MdtestOptions{};
  md.mdtest->filesPerRank = 4;
  variants.emplace_back("queued metadata + mdtest", md,
                        [](const RunRecord& r) { return r.md.totalOps > 0; });

  for (const auto& [label, config, engaged] : variants) {
    TracingProbe probe;
    const auto [rep0, record] = campaignRep0AndProbedRerun(config, probe);
    SCOPED_TRACE(label);
    EXPECT_TRUE(engaged(rep0));
    ASSERT_TRUE(probe.finishedRecord.has_value());
    EXPECT_EQ(probe.detaches, 1u);
    EXPECT_EQ(probe.finishedRecord->ior.end, record.ior.end);
    EXPECT_EQ(record.seed, rep0.seed);
    EXPECT_EQ(record.environment.network, rep0.environment.network);
    EXPECT_EQ(record.environment.storage, rep0.environment.storage);
    EXPECT_EQ(record.ior.targetsUsed, rep0.ior.targetsUsed);
    EXPECT_EQ(record.ior.start, rep0.ior.start);
    EXPECT_EQ(record.ior.end, rep0.ior.end);
    EXPECT_EQ(record.ior.metaTime, rep0.ior.metaTime);
    EXPECT_EQ(record.ior.bandwidth, rep0.ior.bandwidth);
    EXPECT_EQ(record.ior.faults.timeouts, rep0.ior.faults.timeouts);
    EXPECT_EQ(record.ior.faults.failovers, rep0.ior.faults.failovers);
    EXPECT_EQ(record.ior.faults.bytesRewritten, rep0.ior.faults.bytesRewritten);
    EXPECT_EQ(record.ior.faults.degradedTime, rep0.ior.faults.degradedTime);
    EXPECT_EQ(record.ior.mirror.bytesReplicated, rep0.ior.mirror.bytesReplicated);
    EXPECT_EQ(record.ior.mirror.failovers, rep0.ior.mirror.failovers);
    EXPECT_EQ(record.ior.hedge.hedgesIssued, rep0.ior.hedge.hedgesIssued);
    EXPECT_EQ(record.injected.total(), rep0.injected.total());
    EXPECT_EQ(record.rebalance.triggers, rep0.rebalance.triggers);
    EXPECT_EQ(record.rebalance.bytesMigrated, rep0.rebalance.bytesMigrated);
    EXPECT_EQ(record.health.quarantines, rep0.health.quarantines);
    EXPECT_EQ(record.qos.tokensIssued, rep0.qos.tokensIssued);
    EXPECT_EQ(record.qos.deferrals, rep0.qos.deferrals);
    EXPECT_EQ(record.md.totalOps, rep0.md.totalOps);
    EXPECT_EQ(record.md.end, rep0.md.end);
    EXPECT_EQ(record.resolves, rep0.resolves);
    EXPECT_EQ(record.solverIterations, rep0.solverIterations);
  }

  // The plain host crash: every watchdog timeout cancelled one in-flight
  // chunk flow, and the trace shows each cancel.
  TracingProbe probe;
  const auto [rep0, record] = campaignRep0AndProbedRerun(crash, probe);
  EXPECT_GT(record.ior.faults.timeouts, 0u);
  EXPECT_EQ(probe.cancels, record.ior.faults.timeouts);
}

TEST(Observability, ProbeIsDetachedWhenTheRunThrows) {
  // A host failure without a client fault policy is rejected after the
  // probe attached: it must still be detached before the simulator goes.
  auto config = smallConfig();
  config.faults.schedule = faults::parseSchedule("off:h1@1");
  TracingProbe probe;
  config.observe.probe = &probe;
  EXPECT_THROW(runOnce(config, 3), util::ConfigError);
  EXPECT_EQ(probe.detaches, 1u);
  EXPECT_FALSE(probe.finishedRecord.has_value());
}

TEST(Observability, CampaignRowsCarryUtilizationColumnsOnlyWhenEnabled) {
  std::vector<CampaignEntry> entries(1);
  entries[0].config = smallConfig();
  ProtocolOptions protocol;
  protocol.repetitions = 2;

  ExecutorOptions serialExec;
  serialExec.jobs = 1;
  const auto plain = executeCampaign(entries, protocol, 5, nullptr, serialExec);
  for (const auto& row : plain.rows()) {
    EXPECT_EQ(row.metrics.count("srv0_mib"), 0u);
    EXPECT_EQ(row.metrics.count("link_imbalance"), 0u);
  }

  entries[0].config.observe.utilization = true;
  const auto observed = executeCampaign(entries, protocol, 5, nullptr, serialExec);
  for (const auto& row : observed.rows()) {
    EXPECT_EQ(row.metrics.count("srv0_mib"), 1u);
    EXPECT_EQ(row.metrics.count("srv0_busy_frac"), 1u);
    EXPECT_EQ(row.metrics.count("srv1_mib"), 1u);
    EXPECT_EQ(row.metrics.count("link_imbalance"), 1u);
  }
  // Observation does not perturb the measured bandwidth.
  EXPECT_EQ(plain.metric("bandwidth_mibps"), observed.metric("bandwidth_mibps"));
}

TEST(Observability, ObservedCampaignCsvInvariantToJobs) {
  std::vector<CampaignEntry> entries(1);
  entries[0].config = smallConfig();
  entries[0].config.observe.utilization = true;
  entries[0].config.observe.profile = true;
  ProtocolOptions protocol;
  protocol.repetitions = 4;

  ExecutorOptions serialExec;
  serialExec.jobs = 1;
  ExecutorOptions parallelExec;
  parallelExec.jobs = 4;
  const auto serial = executeCampaign(entries, protocol, 9, nullptr, serialExec);
  const auto parallel = executeCampaign(entries, protocol, 9, nullptr, parallelExec);

  const auto dir = std::filesystem::temp_directory_path();
  const auto pathA = dir / "beesim_obs_serial.csv";
  const auto pathB = dir / "beesim_obs_parallel.csv";
  serial.writeCsv(pathA);
  parallel.writeCsv(pathB);
  std::ifstream a(pathA);
  std::ifstream b(pathB);
  std::stringstream bufA;
  std::stringstream bufB;
  bufA << a.rdbuf();
  bufB << b.rdbuf();
  EXPECT_EQ(bufA.str(), bufB.str());
  EXPECT_NE(bufA.str().find("link_imbalance"), std::string::npos);
  std::filesystem::remove(pathA);
  std::filesystem::remove(pathB);
}

TEST(Observability, CampaignTotalsAccumulateInCommitOrder) {
  std::vector<CampaignEntry> entries(1);
  entries[0].config = smallConfig();
  entries[0].config.observe.profile = true;
  ProtocolOptions protocol;
  protocol.repetitions = 3;

  CampaignTotals totals;
  ExecutorOptions exec;
  exec.jobs = 1;
  exec.totals = &totals;
  (void)executeCampaign(entries, protocol, 13, nullptr, exec);

  EXPECT_EQ(totals.runs, 3u);
  EXPECT_GT(totals.resolves, 0u);
  EXPECT_GT(totals.solverIterations, 0u);
  EXPECT_GT(totals.solveSeconds, 0.0);
  EXPECT_GT(totals.runWallSeconds, 0.0);
  EXPECT_GE(totals.runWallSeconds, totals.maxRunWallSeconds);
  EXPECT_GT(totals.campaignWallSeconds, 0.0);

  // The deterministic counters are --jobs invariant.
  CampaignTotals parallelTotals;
  exec.jobs = 4;
  exec.totals = &parallelTotals;
  (void)executeCampaign(entries, protocol, 13, nullptr, exec);
  EXPECT_EQ(parallelTotals.runs, totals.runs);
  EXPECT_EQ(parallelTotals.resolves, totals.resolves);
  EXPECT_EQ(parallelTotals.solverIterations, totals.solverIterations);
}

}  // namespace
}  // namespace beesim::harness
