// Gray-failure robustness suite (DESIGN.md §2.9): fail-slow injection
// (slow: grammar, degrade renewal streams, normalize tie-break), injector
// cause-tracking across overlapping outages, hedged writes rescuing
// dead-but-online resources, the peer-relative HealthMonitor (including the
// no-false-positive property on statistically identical servers), QoS
// charge-once under hedging, campaign column gating / --jobs invariance, CLI
// flag plumbing, and a randomized chaos soak.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "cli/commands.hpp"
#include "control/health.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "harness/executor.hpp"
#include "harness/protocol.hpp"
#include "harness/run.hpp"
#include "ior/options.hpp"
#include "ior/runner.hpp"
#include "qos/manager.hpp"
#include "sim/fluid.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim {
namespace {

using namespace beesim::util::literals;

// -- Schedule grammar and normalize tie-break --------------------------------

TEST(FailSlowSchedule, SlowVerbRoundTripsThroughDescribe) {
  const auto schedule =
      faults::parseSchedule("slow:t3@30=0.1;slow:t3@90=1;slow:t2@20=0");
  ASSERT_EQ(schedule.events.size(), 3u);
  EXPECT_EQ(schedule.events[0].kind, faults::FaultKind::kTargetDegrade);
  EXPECT_DOUBLE_EQ(schedule.events[0].fraction, 0.1);
  EXPECT_DOUBLE_EQ(schedule.events[2].fraction, 0.0);  // dead-but-online
  const auto rendered = faults::describeSchedule(schedule);
  const auto reparsed = faults::parseSchedule(rendered);
  ASSERT_EQ(reparsed.events.size(), schedule.events.size());
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].kind, schedule.events[i].kind);
    EXPECT_EQ(reparsed.events[i].index, schedule.events[i].index);
    EXPECT_DOUBLE_EQ(reparsed.events[i].at, schedule.events[i].at);
    EXPECT_DOUBLE_EQ(reparsed.events[i].fraction, schedule.events[i].fraction);
  }
  // Degrade events alone strand nothing: no client fault policy is required.
  EXPECT_FALSE(schedule.hasFailures());
}

std::vector<faults::FaultKind> normalizedKinds(const std::string& text) {
  auto schedule = faults::parseSchedule(text);
  schedule.normalize(8, 2);
  std::vector<faults::FaultKind> kinds;
  for (const auto& event : schedule.events) kinds.push_back(event.kind);
  return kinds;
}

TEST(FailSlowSchedule, SimultaneousConflictingEventsOrderIndependently) {
  // A fail and a recover of the same resource at the same instant must net
  // out to *failed* regardless of the textual order: recoveries sort first.
  const auto a = normalizedKinds("off:t3@10;on:t3@10;slow:t3@10=0.2");
  const auto b = normalizedKinds("slow:t3@10=0.2;on:t3@10;off:t3@10");
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], faults::FaultKind::kTargetRecover);
  EXPECT_EQ(a[1], faults::FaultKind::kTargetDegrade);
  EXPECT_EQ(a[2], faults::FaultKind::kTargetFail);

  // The net state is "failed" in both orders: apply through an injector.
  for (const auto* text : {"off:t3@0;on:t3@0", "on:t3@0;off:t3@0"}) {
    sim::FluidSimulator fluid;
    const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
    beegfs::BeegfsParams params;
    params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
    beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
    faults::FaultInjector injector(deployment, faults::parseSchedule(text));
    injector.arm();
    fluid.run();
    EXPECT_FALSE(deployment.mgmt().target(3).online) << text;
  }
}

TEST(FailSlowSchedule, DegradeRenewalIsDeterministicAndLeavesCrashStreamAlone) {
  faults::StochasticFaultSpec crashOnly;
  crashOnly.targetMttf = 40.0;
  crashOnly.targetMttr = 5.0;
  crashOnly.horizon = 200.0;

  auto withDegrades = crashOnly;
  withDegrades.degradeMttf = 30.0;
  withDegrades.degradeMttr = 6.0;
  withDegrades.degradeFloor = 0.0;
  withDegrades.degradeCeiling = 0.25;

  util::Rng rngA(77);
  util::Rng rngB(77);
  util::Rng rngC(77);
  const auto base = faults::generateSchedule(crashOnly, 8, 2, rngA);
  const auto mixed = faults::generateSchedule(withDegrades, 8, 2, rngB);
  const auto mixed2 = faults::generateSchedule(withDegrades, 8, 2, rngC);

  // Deterministic: identical spec + rng state => identical schedule.
  ASSERT_EQ(mixed.events.size(), mixed2.events.size());
  for (std::size_t i = 0; i < mixed.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(mixed.events[i].at, mixed2.events[i].at);
    EXPECT_EQ(mixed.events[i].kind, mixed2.events[i].kind);
  }

  // The degrade stream is drawn *after* the crash streams, so enabling it
  // must not move a single crash event (old seeds keep their plans).
  std::vector<faults::FaultEvent> baseCrashes;
  std::vector<faults::FaultEvent> mixedCrashes;
  for (const auto& e : base.events) {
    if (e.kind != faults::FaultKind::kTargetDegrade) baseCrashes.push_back(e);
  }
  for (const auto& e : mixed.events) {
    if (e.kind != faults::FaultKind::kTargetDegrade) mixedCrashes.push_back(e);
  }
  ASSERT_EQ(baseCrashes.size(), mixedCrashes.size());
  for (std::size_t i = 0; i < baseCrashes.size(); ++i) {
    EXPECT_DOUBLE_EQ(baseCrashes[i].at, mixedCrashes[i].at);
    EXPECT_EQ(baseCrashes[i].kind, mixedCrashes[i].kind);
    EXPECT_EQ(baseCrashes[i].index, mixedCrashes[i].index);
  }

  // Drawn severities respect the configured range and alternate with full
  // repairs (fraction 1).
  std::size_t onsets = 0;
  for (const auto& e : mixed.events) {
    if (e.kind != faults::FaultKind::kTargetDegrade) continue;
    EXPECT_GE(e.fraction, 0.0);
    if (e.fraction < 1.0) {
      EXPECT_LE(e.fraction, withDegrades.degradeCeiling);
      ++onsets;
    }
    EXPECT_LT(e.at, withDegrades.horizon);
  }
  EXPECT_GT(onsets, 0u);
}

// -- Injector cause-tracking (PR satellite: recovery clobbering) -------------

struct InjectorRig {
  sim::FluidSimulator fluid;
  topo::ClusterConfig cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::Deployment deployment;

  explicit InjectorRig()
      : deployment(fluid, cluster, [] {
          beegfs::BeegfsParams params;
          params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
          return params;
        }(), util::Rng(1)) {}

  void run(const std::string& schedule) {
    faults::FaultInjector injector(deployment, faults::parseSchedule(schedule));
    injector.arm();
    fluid.run();
  }
};

TEST(FailSlowInjector, HostRebootDoesNotReviveIndependentlyFailedTarget) {
  // Target 4 fails on its own at t=1; its host crashes at t=2 and reboots at
  // t=3.  The reboot clears only the host cause: target 4 stays down until
  // its own recovery at t=4.
  InjectorRig rig;
  rig.run("off:t4@1;off:h1@2;on:h1@3");
  EXPECT_FALSE(rig.deployment.mgmt().target(4).online);
  EXPECT_TRUE(rig.deployment.mgmt().target(5).online);  // host cause cleared
  EXPECT_DOUBLE_EQ(rig.deployment.hostLinkHealth(1), 1.0);

  InjectorRig rig2;
  rig2.run("off:t4@1;off:h1@2;on:h1@3;on:t4@4");
  EXPECT_TRUE(rig2.deployment.mgmt().target(4).online);
}

TEST(FailSlowInjector, OrderingOfOverlappingCausesDoesNotMatter) {
  // Same net causes in the opposite arrival order: host crash first, then
  // the independent target failure, then the reboot.
  InjectorRig rig;
  rig.run("off:h1@1;off:t4@2;on:h1@3");
  EXPECT_FALSE(rig.deployment.mgmt().target(4).online);
  EXPECT_TRUE(rig.deployment.mgmt().target(5).online);
}

TEST(FailSlowInjector, HostRebootPreservesIndependentLinkDegrade) {
  // The link was degraded to 0.3 by its own event before the crash; the
  // reboot restores the *crash* cause only, leaving the stutter in force.
  InjectorRig rig;
  rig.run("link:h1@1=0.3;off:h1@2;on:h1@3");
  EXPECT_DOUBLE_EQ(rig.deployment.hostLinkHealth(1), 0.3);
  InjectorRig rig2;
  rig2.run("link:h1@1=0.3;off:h1@2;on:h1@3;link:h1@4=1");
  EXPECT_DOUBLE_EQ(rig2.deployment.hostLinkHealth(1), 1.0);
}

TEST(FailSlowInjector, HostRebootPreservesIndependentTargetDegrade) {
  InjectorRig rig;
  rig.run("slow:t4@1=0.1;off:h1@2;on:h1@3");
  EXPECT_TRUE(rig.deployment.mgmt().target(4).online);
  EXPECT_DOUBLE_EQ(rig.deployment.targetHealth(4), 0.1);
}

TEST(FailSlowInjector, TargetDegradeScalesServiceRate) {
  // One rank, one pinned target: halving the target's service rate roughly
  // halves the measured bandwidth (the OST is the bottleneck).
  auto bandwidthAt = [](double fraction) {
    sim::FluidSimulator fluid;
    auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 1);
    cluster.network.serverLinkNoiseSigmaLog = 0.0;
    for (auto& host : cluster.hosts) {
      for (auto& target : host.targets) target.variability = topo::VariabilitySpec{};
    }
    beegfs::Deployment deployment(fluid, cluster, beegfs::BeegfsParams{}, util::Rng(1));
    beegfs::FileSystem fs(deployment, util::Rng(2));
    if (fraction < 1.0) {
      const auto schedule = "slow:t0@0=" + std::to_string(fraction);
      faults::FaultInjector injector(deployment, faults::parseSchedule(schedule));
      injector.arm();
      ior::IorOptions options;
      options.blockSize = ior::blockSizeForTotal(2_GiB, 8);
      return ior::runIor(fs, ior::IorJob::onFirstNodes(1, 8), options, {{0}}).bandwidth;
    }
    ior::IorOptions options;
    options.blockSize = ior::blockSizeForTotal(2_GiB, 8);
    return ior::runIor(fs, ior::IorJob::onFirstNodes(1, 8), options, {{0}}).bandwidth;
  };
  const double healthy = bandwidthAt(1.0);
  const double degraded = bandwidthAt(0.5);
  ASSERT_GT(degraded, 0.0);
  EXPECT_NEAR(healthy / degraded, 2.0, 0.25);
}

// -- Hedged writes ------------------------------------------------------------

TEST(FailSlowHedge, DeadButOnlineTargetIsHedgedNotStalled) {
  // Target 0 serves at rate 0 while staying registered online: the crash
  // watchdog never fires (no registry flip), so without hedging the run
  // would stall forever.  The hedge re-issues the chunk elsewhere and wins.
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::BeegfsParams params;
  params.hedge.enabled = true;
  params.hedge.deadline = 0.3;
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  faults::FaultInjector injector(deployment, faults::parseSchedule("slow:t0@0=0"));
  injector.arm();

  const auto handle = fs.createPinned("/gray", {0, 4}, 512_KiB);
  bool done = false;
  fs.writeAsync(0, handle, 0, 512_MiB, 8.0, [&](util::Seconds) { done = true; });
  fluid.run();

  EXPECT_TRUE(done);
  EXPECT_GE(fs.hedgeStats().hedgesIssued, 1u);
  EXPECT_GE(fs.hedgeStats().hedgeWins, 1u);
  EXPECT_EQ(fs.hedgedInFlight(), 0u);
}

TEST(FailSlowHedge, NearZeroLinkDegradeCompletesUnderWatchdogAndHedge) {
  // PR satellite: watchdog + near-zero kLinkDegrade must terminate.  Host
  // 1's link drops to ~0 while everything stays online; chunks homed there
  // hedge across to host 0 instead of stalling.
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  config.fs.defaultStripe.stripeCount = 8;
  config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  config.fs.faults.ioTimeout = 0.5;
  config.fs.hedge.enabled = true;
  config.fs.hedge.deadline = 0.3;
  config.faults.schedule = faults::parseSchedule("link:h1@0=0.000001");
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(1_GiB, 32);
  const auto record = harness::runOnce(config, 9);  // asserts completion
  EXPECT_FALSE(record.ior.failed);
  EXPECT_TRUE(record.hedgeActive);
  EXPECT_GE(record.ior.hedge.hedgesIssued, 1u);
  EXPECT_GT(record.ior.bandwidth, 0.0);
}

TEST(FailSlowHedge, HealthyRunsIssueNoHedgesAndMatchBaseline) {
  // With no fault in sight the hedge timers observe healthy rates and never
  // fire: bandwidth must match the unhedged run on the same seed.
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  config.fs.defaultStripe.stripeCount = 4;
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(1_GiB, 32);
  const auto plain = harness::runOnce(config, 5);
  config.fs.hedge.enabled = true;
  const auto hedged = harness::runOnce(config, 5);
  ASSERT_TRUE(hedged.hedgeActive);
  EXPECT_EQ(hedged.ior.hedge.hedgesIssued, 0u);
  EXPECT_DOUBLE_EQ(hedged.ior.bandwidth, plain.ior.bandwidth);
}

TEST(FailSlowHedge, QosTokensAreChargedOncePerLogicalByte) {
  // Hedge legs are server-side re-issues riding the original admission:
  // tokens must cover the logical bytes exactly once even when hedges fire.
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::BeegfsParams params;
  params.hedge.enabled = true;
  params.hedge.deadline = 0.3;
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));

  qos::QosPolicy policy;
  policy.enabled = true;
  policy.rate = 400.0;
  qos::QosManager manager(fluid, policy);
  manager.registerApp(qos::makeAppSpec(policy), {0});
  fs.setQosManager(&manager);

  faults::FaultInjector injector(deployment, faults::parseSchedule("slow:t0@0=0"));
  injector.arm();

  const auto handle = fs.createPinned("/qos-gray", {0, 4}, 512_KiB);
  bool done = false;
  fs.writeAsync(0, handle, 0, 512_MiB, 8.0, [&](util::Seconds) { done = true; });
  fluid.run();

  ASSERT_TRUE(done);
  EXPECT_GE(fs.hedgeStats().hedgesIssued, 1u);
  EXPECT_DOUBLE_EQ(manager.stats().tokensIssued, static_cast<double>(512_MiB));
}

// -- Chunk control records: stale handles ------------------------------------
//
// Hedge timers and watchdogs name their chunk's control record by a
// generation-stamped handle.  A record is freed when its chunk resolves, and
// the next controlled chunk takes the same slot; a timer of the first tenant
// that fires afterwards must act on nobody.

/// Write one 32 MiB chunk to pinned target 4 (healthy host 1) and, from its
/// completion, one 512 MiB chunk to pinned target 0, which takes over the
/// first chunk's control record slot.  `firstDone` receives the first
/// write's completion time, `secondDone` flips when the second one lands.
void writeThenReuse(beegfs::FileSystem& fs, util::Seconds& firstDone, bool& secondDone) {
  const auto first = fs.createPinned("/first", {4}, 32_MiB);
  const auto second = fs.createPinned("/second", {0}, 512_MiB);
  fs.writeAsync(0, first, 0, 32_MiB, 8.0, [&fs, second, &firstDone,
                                           &secondDone](util::Seconds at) {
    firstDone = at;
    fs.writeAsync(0, second, 0, 512_MiB, 8.0,
                  [&secondDone](util::Seconds) { secondDone = true; });
  });
}

TEST(FailSlowControl, StaleHedgeTimerLeavesTheSlotsNextTenantAlone) {
  // The first chunk resolves long before its hedge deadline; the second one
  // is stuck on a dead-but-online target.  The first chunk's timer fires at
  // `deadline` and must neither check nor hedge the second chunk, whose own
  // timer first fires at firstDone + deadline.
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::BeegfsParams params;
  params.hedge.enabled = true;
  params.hedge.deadline = 0.3;
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  faults::FaultInjector injector(deployment, faults::parseSchedule("slow:t0@0=0"));
  injector.arm();

  util::Seconds firstDone = -1.0;
  bool secondDone = false;
  writeThenReuse(fs, firstDone, secondDone);
  fluid.engine().runUntil(params.hedge.deadline);
  ASSERT_GT(firstDone, 0.01) << "the second chunk must start well before the stale timer";
  ASSERT_LT(firstDone, params.hedge.deadline);
  // Past the stale timer, before the second chunk's own first check.
  fluid.engine().runUntil(params.hedge.deadline + firstDone / 2.0);
  EXPECT_EQ(fs.hedgeStats().hedgesIssued, 0u);
  EXPECT_EQ(fs.hedgedInFlight(), 1u);
  EXPECT_FALSE(secondDone);

  fluid.run();
  EXPECT_TRUE(secondDone);
  EXPECT_EQ(fs.hedgeStats().hedgesIssued, 1u);
  EXPECT_EQ(fs.hedgeStats().hedgeWins, 1u);
  EXPECT_EQ(fs.hedgedInFlight(), 0u);
}

TEST(FailSlowControl, FinishedChunkLeavesANoOpWatchdog) {
  // The first chunk lands before ioTimeout, so its watchdog is a no-op; the
  // second chunk takes its record slot and then loses its target to a crash.
  // Only the second chunk's own watchdog, at firstDone + ioTimeout, may
  // declare the timeout -- the stale one at ioTimeout must not.
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::BeegfsParams params;
  params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  params.faults.ioTimeout = 0.5;
  params.faults.maxRetries = 1;
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  faults::FaultInjector injector(deployment, faults::parseSchedule("off:t0@0.3"));
  injector.arm();

  util::Seconds firstDone = -1.0;
  bool secondDone = false;
  writeThenReuse(fs, firstDone, secondDone);
  fluid.engine().runUntil(params.faults.ioTimeout);
  ASSERT_GT(firstDone, 0.01);
  ASSERT_LT(firstDone, 0.3) << "the second chunk must start before its target fails";
  fluid.engine().runUntil(params.faults.ioTimeout + firstDone / 2.0);
  EXPECT_EQ(fs.faultStats().timeouts, 0u);
  EXPECT_FALSE(secondDone);

  fluid.run();
  EXPECT_TRUE(secondDone);
  EXPECT_EQ(fs.faultStats().timeouts, 1u);
  EXPECT_EQ(fs.faultStats().failovers, 1u);
  EXPECT_FALSE(fs.faultsAborted());
  EXPECT_EQ(fs.hedgedInFlight(), 0u);
}

// -- HealthMonitor ------------------------------------------------------------

harness::RunConfig monitorConfig(util::Bytes total = 2_GiB) {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  config.fs.defaultStripe.stripeCount = 8;
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  config.health.enabled = true;
  config.health.suspectRatio = 0.5;
  config.health.suspectPatience = 0.75;
  config.health.probationDelay = 2.0;
  return config;
}

TEST(FailSlowMonitor, NeverQuarantinesStatisticallyIdenticalServers) {
  // Property (PR satellite): servers drawn from the *same* distribution must
  // not be quarantined -- under zero variability and under the default
  // log-normal device/link noise alike, across seeds.
  for (const bool variability : {false, true}) {
    for (const std::uint64_t seed : {1ull, 7ull, 23ull, 91ull, 404ull}) {
      auto config = monitorConfig(1_GiB);
      if (!variability) {
        config.cluster.network.serverLinkNoiseSigmaLog = 0.0;
        for (auto& host : config.cluster.hosts) {
          for (auto& target : host.targets) {
            target.variability = topo::VariabilitySpec{};
          }
        }
        config.noise = harness::NoiseSpec{0.0, 0.0};
      }
      const auto record = harness::runOnce(config, seed);
      ASSERT_TRUE(record.healthActive);
      EXPECT_GT(record.health.samples, 0u);
      EXPECT_EQ(record.health.quarantines, 0u)
          << "variability=" << variability << " seed=" << seed;
    }
  }
}

TEST(FailSlowMonitor, QuarantinesGrayHostAndReadmitsAfterRepair) {
  // Every target of host 1 fail-slows to 5% at t=1 and is repaired at t=6:
  // the peer-relative score flags the host, quarantine drains it, and the
  // probation probe re-admits it.  24 GiB keeps host 0 busy (a peer to score
  // against) through detection, quarantine, and the probation timer.
  auto config = monitorConfig(24_GiB);
  std::string schedule;
  for (int t = 4; t < 8; ++t) {
    schedule += "slow:t" + std::to_string(t) + "@1=0.05;";
    schedule += "slow:t" + std::to_string(t) + "@6=1;";
  }
  config.faults.schedule = faults::parseSchedule(schedule);
  const auto record = harness::runOnce(config, 3);
  ASSERT_TRUE(record.healthActive);
  EXPECT_GE(record.health.suspects, 1u);
  EXPECT_GE(record.health.quarantines, 1u);
  EXPECT_GE(record.health.probations, 1u);
}

TEST(FailSlowMonitor, ConvoyedIdlePeersStillTestifyAgainstTheStraggler) {
  // A host-wide link stutter convoys every rank behind host 1's crawling
  // chunks, so host 0 sits idle at most sample instants.  Its busy-gated
  // EWMA must retain the last-known healthy rate as evidence -- if idle
  // samples decayed it (or idle peers were skipped), `below` would flicker
  // and the patience window would never close.  Scenario 1: server links
  // are the bottleneck, so the NIC-level rate carries the whole signal.
  auto config = monitorConfig(8_GiB);
  config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  config.faults.schedule = faults::parseSchedule("link:h1@1=0.08");
  const auto record = harness::runOnce(config, 5);
  ASSERT_TRUE(record.healthActive);
  EXPECT_GE(record.health.suspects, 1u);
  EXPECT_GE(record.health.quarantines, 1u);
}

TEST(FailSlowMonitor, DetectionIsPeerRelativeUnderClusterWideSlowdown) {
  // Both hosts stutter to 30% at once: the peer median moves with the
  // cluster, so nobody is below ratio x median and nothing is quarantined.
  auto config = monitorConfig(2_GiB);
  config.faults.schedule = faults::parseSchedule("link:h0@2=0.3;link:h1@2=0.3");
  const auto record = harness::runOnce(config, 11);
  ASSERT_TRUE(record.healthActive);
  EXPECT_EQ(record.health.quarantines, 0u);
}

TEST(FailSlowMonitor, CliKnobValidation) {
  control::HealthPolicy policy;
  policy.enabled = true;
  auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  sim::FluidSimulator fluid;
  beegfs::Deployment deployment(fluid, cluster, beegfs::BeegfsParams{}, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  policy.suspectRatio = 1.5;
  EXPECT_THROW(control::HealthMonitor(fs, policy), util::ContractError);
  policy.suspectRatio = 0.5;
  policy.suspectPatience = 0.0;
  EXPECT_THROW(control::HealthMonitor(fs, policy), util::ContractError);
}

// -- Campaign plumbing --------------------------------------------------------

harness::CampaignEntry grayEntry() {
  harness::CampaignEntry entry;
  entry.config = monitorConfig(1_GiB);
  entry.config.fs.hedge.enabled = true;
  entry.config.faults.schedule = faults::parseSchedule(
      "slow:t4@1=0.05;slow:t5@1=0.05;slow:t6@1=0.05;slow:t7@1=0.05");
  return entry;
}

TEST(FailSlowCampaign, ColumnsAreGatedAndJobsInvariant) {
  const auto entry = grayEntry();
  harness::ProtocolOptions protocol;
  protocol.repetitions = 3;
  harness::ExecutorOptions serial;
  serial.jobs = 1;
  harness::ExecutorOptions parallel;
  parallel.jobs = 4;
  const auto a = harness::executeCampaign({entry}, protocol, 99, nullptr, serial);
  const auto b = harness::executeCampaign({entry}, protocol, 99, nullptr, parallel);
  for (const std::string metric :
       {"bandwidth_mibps", "gray_samples", "gray_suspects", "gray_quarantines",
        "gray_probations", "gray_readmissions", "gray_relapses", "hedge_issued",
        "hedge_wins", "hedge_primary_wins", "hedge_mirror_switchovers", "hedge_mib"}) {
    EXPECT_EQ(a.metric(metric, {}), b.metric(metric, {})) << metric;
  }

  // Feature off => the columns must not exist at all (golden-bytes contract).
  harness::CampaignEntry off = entry;
  off.config.health = control::HealthPolicy{};
  off.config.fs.hedge = beegfs::HedgePolicy{};
  off.config.faults = faults::FaultPlan{};
  const auto gated = harness::executeCampaign({off}, protocol, 99, nullptr, serial);
  EXPECT_THROW(gated.metric("gray_quarantines", {}), util::ContractError);
  EXPECT_THROW(gated.metric("hedge_issued", {}), util::ContractError);
}

TEST(FailSlowCampaign, DisabledFeaturesKeepLegacyBytes) {
  // The detector/hedge master switches off must reproduce the exact same
  // rows as a build that never heard of them: same seed, same bandwidth to
  // the last bit, no gray/hedge columns.
  harness::CampaignEntry entry;
  entry.config = monitorConfig(512_MiB);
  entry.config.health = control::HealthPolicy{};  // off
  harness::ProtocolOptions protocol;
  protocol.repetitions = 2;
  harness::ExecutorOptions serial;
  serial.jobs = 1;
  const auto a = harness::executeCampaign({entry}, protocol, 7, nullptr, serial);
  const auto b = harness::executeCampaign({entry}, protocol, 7, nullptr, serial);
  EXPECT_EQ(a.metric("bandwidth_mibps", {}), b.metric("bandwidth_mibps", {}));
  EXPECT_THROW(a.metric("gray_samples", {}), util::ContractError);
}

TEST(FailSlowConcurrent, MonitorAndHedgeComposeWithTenants) {
  harness::RunConfig base;
  base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  base.fs.defaultStripe.stripeCount = 8;
  base.fs.hedge.enabled = true;
  base.health.enabled = true;
  base.health.suspectRatio = 0.5;
  std::vector<harness::AppSpec> specs(2);
  specs[0].job = ior::IorJob{{0, 1}, 8};
  specs[1].job = ior::IorJob{{2, 3}, 8};
  for (auto& spec : specs) {
    spec.ior.blockSize = ior::blockSizeForTotal(512_MiB, spec.job.ranks());
  }
  const auto result = harness::runConcurrent(base, specs, 17);
  EXPECT_TRUE(result.healthActive);
  EXPECT_TRUE(result.hedgeActive);
  EXPECT_GT(result.health.samples, 0u);
  EXPECT_GT(result.aggregateBandwidth, 0.0);
}

// -- CLI flag plumbing --------------------------------------------------------

int runCliCapture(std::vector<std::string> argv, std::string* out = nullptr) {
  std::ostringstream o;
  std::ostringstream e;
  const int code = cli::runCli(argv, o, e);
  if (out) *out = o.str();
  return code;
}

TEST(FailSlowCli, KnobsWithoutMasterSwitchAreRejected) {
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--fail-slow-mttr", "5"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--fail-slow-severity", "0.1"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--suspect-patience", "2"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--hedge-deadline", "1"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--hedge-ratio", "0.2"}), 0);
}

TEST(FailSlowCli, BoundsAreValidated) {
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--fail-slow", "0"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--fail-slow", "30",
                           "--fail-slow-severity", "1.5"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--suspect-ratio", "1.2"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--suspect-ratio", "0.5",
                           "--suspect-patience", "0"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--hedge", "--hedge-ratio", "2"}), 0);
}

TEST(FailSlowCli, RunReportsHealthAndHedgeTotals) {
  std::string out;
  ASSERT_EQ(runCliCapture({"run", "--nodes", "2", "--reps", "1", "--total", "256m",
                           "--faults", "slow:t4@1=0.05", "--suspect-ratio", "0.5",
                           "--hedge"},
                          &out),
            0);
  EXPECT_NE(out.find("health (totals over 1 reps)"), std::string::npos);
  EXPECT_NE(out.find("hedge (totals over 1 reps)"), std::string::npos);
}

TEST(FailSlowCli, SlowGrammarAndFailSlowFlagAreAccepted) {
  std::string out;
  EXPECT_EQ(runCliCapture({"run", "--nodes", "2", "--reps", "1", "--total", "128m",
                           "--fail-slow", "40", "--fail-slow-mttr", "4",
                           "--fail-slow-severity", "0.2", "--hedge"},
                          &out),
            0);
  EXPECT_NE(out.find("bandwidth:"), std::string::npos);
}

// -- Chaos soak (CI: randomized schedules, logged seeds) ----------------------

TEST(FailSlowChaos, RandomizedFailSlowNeverStallsOrDoubleSpends) {
  // Randomized fail-slow campaigns with the full mitigation stack.  Each
  // seed's plan may drive targets to fraction 0 (dead-but-online); the run
  // must still terminate (runOnce asserts completion) and QoS tokens must
  // cover the logical bytes exactly once.  Seeds are logged so CI failures
  // reproduce with --gtest_filter + the printed seed.
  std::size_t seeds = 10;
  if (const char* env = std::getenv("BEESIM_CHAOS_SEEDS")) {
    seeds = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  for (std::size_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 1000 + 37 * i;
    std::cout << "[chaos] fail-slow soak seed=" << seed << "\n";
    harness::RunConfig config;
    config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
    config.fs.defaultStripe.stripeCount = 8;
    config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
    config.fs.faults.ioTimeout = 0.5;
    config.fs.hedge.enabled = true;
    config.fs.hedge.deadline = 0.4;
    config.health.enabled = true;
    config.health.suspectRatio = 0.5;
    config.qos.enabled = true;
    config.qos.rate = 800.0;
    faults::StochasticFaultSpec spec;
    spec.degradeMttf = 6.0;
    spec.degradeMttr = 3.0;
    spec.degradeFloor = 0.0;  // includes dead-but-online episodes
    spec.degradeCeiling = 0.3;
    spec.linkStutterMttf = 10.0;
    spec.linkStutterMttr = 2.0;
    spec.horizon = 60.0;
    config.faults.stochastic = spec;
    config.job = ior::IorJob::onFirstNodes(4, 8);
    config.ior.blockSize = ior::blockSizeForTotal(1_GiB, 32);
    const auto record = harness::runOnce(config, seed);  // asserts completion
    EXPECT_FALSE(record.ior.failed) << "seed=" << seed;
    ASSERT_TRUE(record.qosActive);
    EXPECT_DOUBLE_EQ(record.qos.tokensIssued,
                     static_cast<double>(record.ior.totalBytes))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace beesim
