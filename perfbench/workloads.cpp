// Workload definitions and the run digests (see bench.hpp).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "faults/schedule.hpp"
#include "ior/options.hpp"
#include "topology/plafrim.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

namespace topo = beesim::topo;
namespace ior = beesim::ior;
namespace util = beesim::util;
using beesim::beegfs::ClientFaultPolicy;
using beesim::beegfs::MdShardKind;
using Clock = std::chrono::steady_clock;

constexpr util::Bytes kPaperTotal = 32ULL * util::kGiB;

/// makePlafrim, timed as topology set-up.
topo::ClusterConfig plafrim(topo::Scenario scenario, std::size_t nodes, SetupTiming& timing) {
  const auto start = Clock::now();
  auto cluster = topo::makePlafrim(scenario, nodes);
  timing.topologySeconds += std::chrono::duration<double>(Clock::now() - start).count();
  return cluster;
}

/// A single-application PlaFRIM run as the repo's figure benches build it:
/// the first `nodes` nodes, `ppn` ranks each, `total` bytes in one segment.
harness::RunConfig plafrimRun(topo::Scenario scenario, std::size_t nodes, int ppn,
                              unsigned stripeCount, util::Bytes total, SetupTiming& timing) {
  harness::RunConfig config;
  config.cluster = plafrim(scenario, nodes, timing);
  config.fs.defaultStripe.stripeCount = stripeCount;
  config.job = ior::IorJob::onFirstNodes(nodes, ppn);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  return config;
}

void addPinned(Workload& w, topo::Scenario scenario, std::size_t nodes,
               const std::vector<std::size_t>& targets, SetupTiming& timing) {
  harness::CampaignEntry entry;
  entry.config = plafrimRun(scenario, nodes, 8, static_cast<unsigned>(targets.size()),
                            kPaperTotal, timing);
  entry.config.pinnedTargets = targets;
  w.entries.push_back(std::move(entry));
}

/// Fig. 8 (S1, 8x8, every pinned (min,max)) and Fig. 10 (S2, 32x8) as one
/// protocol plan, plus Fig. 12's concurrent applications.
void paperCampaign(Workload& w, std::uint64_t seed, SetupTiming& timing) {
  const std::vector<std::vector<std::size_t>> fig08{
      {4},       {4, 5},       {4, 5, 6},       {4, 5, 6, 7},       {0, 4},
      {0, 4, 5}, {0, 4, 5, 6}, {0, 1, 4, 5},    {0, 1, 4, 5, 6},    {0, 1, 4, 5, 6, 7},
      {0, 1, 2, 4, 5, 6},      {0, 1, 2, 4, 5, 6, 7},               {0, 1, 2, 3, 4, 5, 6, 7}};
  const std::vector<std::vector<std::size_t>> fig10{
      {4},          {0, 4},          {4, 5},             {0, 4, 5, 6},
      {0, 1, 4, 5}, {0, 1, 4, 5, 6, 7}, {0, 1, 2, 4, 5, 6}, {0, 1, 2, 3, 4, 5, 6, 7}};
  for (const auto& targets : fig08) {
    addPinned(w, topo::Scenario::kEthernet10G, 8, targets, timing);
  }
  for (const auto& targets : fig10) {
    addPinned(w, topo::Scenario::kOmniPath100G, 32, targets, timing);
  }
  w.protocol.repetitions = 10;

  // Fig. 12: k apps x 8 nodes x 8 ppn, 32 GiB each; 2 OSTs/app are disjoint
  // pairs, 4 OSTs/app are the two round-robin (1,3) windows (apps 0/2 and
  // 1/3 share), 8 OSTs/app share everything.
  util::Rng caseSeeds = util::Rng(seed).splitNamed(12);
  for (const std::size_t k : {2, 3, 4}) {
    for (const unsigned count : {2u, 4u, 8u}) {
      ConcurrentCase c;
      c.base.cluster = plafrim(topo::Scenario::kOmniPath100G, k * 8, timing);
      c.base.fs.defaultStripe.stripeCount = count;
      c.apps.resize(k);
      for (std::size_t a = 0; a < k; ++a) {
        auto& app = c.apps[a];
        app.job.ppn = 8;
        for (std::size_t n = 0; n < 8; ++n) app.job.nodeIds.push_back(a * 8 + n);
        app.ior.blockSize = ior::blockSizeForTotal(kPaperTotal, app.job.ranks());
        if (count == 2) {
          app.pinnedTargets = std::vector<std::size_t>{a % 4, 4 + a % 4};
        } else if (count == 4) {
          app.pinnedTargets = a % 2 == 0 ? std::vector<std::size_t>{0, 4, 5, 6}
                                         : std::vector<std::size_t>{7, 1, 2, 3};
        } else {
          app.pinnedTargets = std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7};
        }
      }
      c.seed = caseSeeds.bits();
      w.concurrent.push_back(std::move(c));
    }
  }
}

/// The 4096-node / 32768-rank Scenario-2 run (stripe 8, 4 MiB per rank).
void scale32k(Workload& w, SetupTiming& timing) {
  constexpr std::size_t kNodes = 4096;
  harness::CampaignEntry entry;
  entry.config = plafrimRun(topo::Scenario::kOmniPath100G, kNodes, 8, 8,
                            static_cast<util::Bytes>(kNodes) * 8 * 4 * util::kMiB, timing);
  w.entries.push_back(std::move(entry));
  w.protocol.repetitions = 4;
}

/// A 256 MiB IOR phase, then mdtest (64 files/rank) on four hash-sharded
/// queued MDTs, 8 nodes x 8 ppn on Scenario 2.
void mdQueued(Workload& w, SetupTiming& timing) {
  harness::CampaignEntry entry;
  entry.config = plafrimRun(topo::Scenario::kOmniPath100G, 8, 8, 4, 256 * util::kMiB, timing);
  entry.config.fs.meta.queued = true;
  entry.config.fs.meta.mdtCount = 4;
  entry.config.fs.meta.shard = MdShardKind::kHashDir;
  ior::MdtestOptions md;
  md.filesPerRank = 64;
  entry.config.mdtest = md;
  w.entries.push_back(std::move(entry));
  w.protocol.repetitions = 8;
}

/// S1 (4,4), 16 GiB in 32 segments: healthy, undetected fail-slow target,
/// host crash with degraded failover, and the mitigated stack (health
/// monitor + hedged writes + QoS).  The variants alternate: each protocol
/// block of four runs holds one of each.  The protocol's spacing is
/// compressed from minutes to seconds: the health monitor's tracer samples
/// every 0.25 s of virtual time from t = 0, so with the paper's 1-30 minute
/// waits a mitigated run would spend most of its host time (and up to tens
/// of MiB) sampling the idle hours before its job starts (README.md).
void grayFailure(Workload& w, SetupTiming& timing) {
  constexpr int kSegments = 32;
  constexpr std::size_t kBlocks = 32;
  const std::vector<std::string> variants{"healthy", "gray", "crash", "mitigated"};
  for (std::size_t i = 0; i < kBlocks * variants.size(); ++i) {
    const std::string& variant = variants[i % variants.size()];
    harness::CampaignEntry entry;
    entry.config = plafrimRun(topo::Scenario::kEthernet10G, 8, 8, 8, 16 * util::kGiB, timing);
    entry.config.ior.blockSize /= kSegments;
    entry.config.ior.segments = kSegments;
    entry.config.pinnedTargets = std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7};
    if (variant == "gray" || variant == "mitigated") {
      entry.config.faults.schedule = beesim::faults::parseSchedule("slow:t4@2.0=0.05");
    } else if (variant == "crash") {
      entry.config.faults.schedule = beesim::faults::parseSchedule("off:h1@2.0");
      entry.config.fs.faults.mode = ClientFaultPolicy::Mode::kDegraded;
      entry.config.fs.faults.ioTimeout = 0.5;
      entry.config.fs.faults.backoffBase = 0.25;
      entry.config.fs.faults.maxRetries = 1;
    }
    if (variant == "mitigated") {
      entry.config.fs.hedge.enabled = true;
      entry.config.fs.hedge.deadline = 0.5;
      entry.config.health.enabled = true;
      entry.config.qos.enabled = true;
      entry.config.qos.rate = 100000.0;
    }
    w.entries.push_back(std::move(entry));
    w.group.push_back(i % variants.size());
  }
  w.protocol.repetitions = 1;
  w.protocol.blockSize = variants.size();
  w.protocol.minWait = 1.0;
  w.protocol.maxWait = 30.0;
  w.protocol.nominalRunDuration = 2.0;
}

/// FNV-1a over raw value bytes: doubles digest bit-exactly.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ULL;
  }
  template <typename T>
  void addAll(const std::vector<T>& values) {
    add(values.size());
    for (const auto& v : values) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void addIor(Digest& d, const ior::IorResult& r) {
  d.add(r.start);
  d.add(r.end);
  d.add(r.totalBytes);
  d.add(r.bandwidth);
  d.add(r.metaTime);
  d.add(r.failed);
  d.addAll(r.targetsUsed);
  d.addAll(r.rankEnd);
  d.add(r.faults.timeouts);
  d.add(r.faults.retries);
  d.add(r.faults.failovers);
  d.add(r.faults.bytesRewritten);
  d.add(r.faults.degradedTime);
  d.add(r.faults.aborted);
  d.add(r.mirror.replicaFlows);
  d.add(r.mirror.bytesReplicated);
  d.add(r.mirror.failovers);
  d.add(r.mirror.bytesResent);
  d.add(r.mirror.bytesLost);
  d.add(r.mirror.resyncJobs);
  d.add(r.mirror.bytesResynced);
  d.add(r.mirror.resyncSeconds);
  d.add(r.hedge.hedgesIssued);
  d.add(r.hedge.hedgeWins);
  d.add(r.hedge.primaryWins);
  d.add(r.hedge.mirrorSwitchovers);
  d.add(r.hedge.bytesHedged);
}

void addMd(Digest& d, const ior::MdtestResult& md) {
  d.add(md.start);
  d.add(md.end);
  for (const auto* phase : {&md.create, &md.stat, &md.unlink}) {
    d.add(phase->start);
    d.add(phase->end);
    d.add(phase->ops);
    d.add(phase->opsPerSec);
  }
  d.add(md.totalOps);
  d.add(md.opsPerSec);
  d.addAll(md.mdtOps);
  d.add(md.mdtImbalance);
}

template <typename Result>
void addShared(Digest& d, const Result& r) {
  d.add(r.seed);
  d.add(r.environment.network);
  d.add(r.environment.storage);
  d.add(r.faultsActive);
  d.add(r.injected.targetFailures);
  d.add(r.injected.targetRecoveries);
  d.add(r.injected.hostFailures);
  d.add(r.injected.hostRecoveries);
  d.add(r.injected.linkDegradations);
  d.add(r.injected.targetDegradations);
  d.add(r.rebalanceActive);
  d.add(r.rebalance.samples);
  d.add(r.rebalance.triggers);
  d.add(r.rebalance.retargets);
  d.add(r.rebalance.migrations);
  d.add(r.rebalance.bytesMigrated);
  d.add(r.rebalance.migrationSeconds);
  d.add(r.rebalance.peakImbalance);
  d.add(r.healthActive);
  d.add(r.health.samples);
  d.add(r.health.suspects);
  d.add(r.health.quarantines);
  d.add(r.health.probations);
  d.add(r.health.readmissions);
  d.add(r.health.relapses);
  d.add(r.hedgeActive);
  d.add(r.mdActive);
  addMd(d, r.md);
  d.add(r.qosActive);
  d.add(r.qos.tokensIssued);
  d.add(r.qos.tokensBorrowed);
  d.add(r.qos.tokensReclaimed);
  d.add(r.qos.deferrals);
  d.add(r.qos.throttleSeconds);
  d.add(r.qos.sloViolations);
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"paper_campaign", "scale_32k", "md_queued",
                                              "gray_failure"};
  return names;
}

Workload buildWorkload(const std::string& name, std::uint64_t seed, const Overrides& overrides,
                       SetupTiming& timing) {
  Workload w;
  w.name = name;
  w.campaignSeed = seed;
  if (name == "paper_campaign") {
    paperCampaign(w, seed, timing);
  } else if (name == "scale_32k") {
    scale32k(w, timing);
  } else if (name == "md_queued") {
    mdQueued(w, timing);
  } else if (name == "gray_failure") {
    grayFailure(w, timing);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (w.group.empty()) {
    for (std::size_t i = 0; i < w.entries.size(); ++i) w.group.push_back(i);
  }
  w.groups = *std::max_element(w.group.begin(), w.group.end()) + 2;
  for (std::size_t i = 0; i < w.entries.size(); ++i) {
    w.entries[i].factors["cfg"] = std::to_string(i);
    if (overrides.epsilon >= 0.0) w.entries[i].config.solverEpsilon = overrides.epsilon;
    w.entries[i].config.observe.utilization = overrides.utilization;
  }
  const auto start = Clock::now();
  util::Rng rng(w.campaignSeed);
  w.plan = harness::buildProtocolPlan(w.entries.size(), w.protocol, rng);
  timing.planSeconds += std::chrono::duration<double>(Clock::now() - start).count();
  return w;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  deploy += o.deploy;
  compose += o.compose;
  launch += o.launch;
  launchNested += o.launchNested;
  run += o.run;
  solve += o.solve;
  collect += o.collect;
  summarize += o.summarize;
  runWall += o.runWall;
  events += o.events;
  resolves += o.resolves;
  deferredResolves += o.deferredResolves;
  solverIterations += o.solverIterations;
  flowsStarted += o.flowsStarted;
  flowsCompleted += o.flowsCompleted;
  flowsCancelled += o.flowsCancelled;
  flowsSolved += o.flowsSolved;
  hedgesIssued += o.hedgesIssued;
  hedgeWins += o.hedgeWins;
  retries += o.retries;
  failovers += o.failovers;
  quarantines += o.quarantines;
  qosDeferrals += o.qosDeferrals;
  faultsInjected += o.faultsInjected;
  mdOps += o.mdOps;
  mdRuns += o.mdRuns;
  mdtImbalanceSum += o.mdtImbalanceSum;
  return *this;
}

std::uint64_t digestRun(const harness::RunRecord& record) {
  Digest d;
  addShared(d, record);
  addIor(d, record.ior);
  d.add(record.mirrorActive);
  return d.value();
}

std::uint64_t digestConcurrent(const harness::ConcurrentResult& result) {
  Digest d;
  addShared(d, result);
  d.add(result.apps.size());
  for (const auto& app : result.apps) addIor(d, app);
  d.add(result.hedge.hedgesIssued);
  d.add(result.hedge.hedgeWins);
  d.add(result.hedge.primaryWins);
  d.add(result.hedge.mirrorSwitchovers);
  d.add(result.hedge.bytesHedged);
  d.add(result.appMd.size());
  for (const auto& md : result.appMd) addMd(d, md);
  d.add(result.aggregateBandwidth);
  d.add(result.sharedTargets);
  d.add(result.distinctTargets);
  return d.value();
}

}  // namespace perfbench
