#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>

#include "beegfs/deployment.hpp"
#include "core/metrics.hpp"
#include "beegfs/filesystem.hpp"
#include "ior/runner.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/units.hpp"

namespace beesim::sim {
namespace {

using namespace beesim::util::literals;

TEST(Trace, RecordsStartRatesComplete) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 100_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  ASSERT_GE(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events().front().kind, TraceEvent::Kind::kStart);
  EXPECT_EQ(tracer.events().back().kind, TraceEvent::Kind::kComplete);
  EXPECT_EQ(tracer.events().back().bytes, 100_MiB);
  EXPECT_NEAR(tracer.events().back().meanRate, 100.0, 1e-6);
}

TEST(Trace, ResourceUsageBanksExactBytes) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto a = fluid.addResource(ResourceSpec{"a", constantCapacity(100.0)});
  const auto b = fluid.addResource(ResourceSpec{"b", constantCapacity(50.0)});
  // Two flows: one crosses a only, one crosses a and b.
  fluid.startFlow(FlowSpec{.path = {a}, .bytes = 60_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.startFlow(FlowSpec{.path = {a, b}, .bytes = 30_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  EXPECT_NEAR(tracer.resourceMiB(a), 90.0, 1e-6);  // both flows
  EXPECT_NEAR(tracer.resourceMiB(b), 30.0, 1e-6);  // only the second
  const auto usage = tracer.resourceUsage();
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_EQ(usage[0].name, "a");
  EXPECT_GT(usage[0].peakRate, 0.0);
  EXPECT_GT(usage[0].busyTime, 0.0);
}

TEST(Trace, JsonlLinesAreValidJson) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  const auto jsonl = tracer.toJsonl();
  int lines = 0;
  for (const auto& line : util::split(jsonl, '\n')) {
    if (line.empty()) continue;
    ++lines;
    const auto doc = util::parseJson(line);
    EXPECT_TRUE(doc.isObject());
    EXPECT_TRUE(doc.has("ev"));
    EXPECT_TRUE(doc.has("t"));
  }
  EXPECT_GE(lines, 3);
}

TEST(Trace, EndToEndOstTrafficDecomposition) {
  // The headline use: trace a whole IOR run and decompose traffic per OST.
  // A (1,3) allocation must put 1/4 of the bytes on each used target and
  // 3/4 of the total through server 2's link.
  FluidSimulator fluid;
  auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  cluster.network.serverLinkNoiseSigmaLog = 0.0;
  for (auto& host : cluster.hosts) {
    for (auto& target : host.targets) target.variability = topo::VariabilitySpec{};
  }
  beegfs::Deployment deployment(fluid, cluster, beegfs::BeegfsParams{}, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  FlowTracer tracer(fluid);

  ior::IorOptions options;
  options.blockSize = ior::blockSizeForTotal(8_GiB, 32);
  const auto result = ior::runIor(fs, ior::IorJob::onFirstNodes(4, 8), options,
                                  std::vector<std::size_t>{0, 4, 5, 6});

  const double totalMiB = util::toMiB(result.totalBytes);
  for (const auto target : result.targetsUsed) {
    EXPECT_NEAR(tracer.resourceMiB(deployment.ostResource(target)), totalMiB / 4.0,
                totalMiB * 1e-6);
  }
  EXPECT_NEAR(tracer.resourceMiB(deployment.serverNicResource(1)), 0.75 * totalMiB,
              totalMiB * 1e-6);
  EXPECT_NEAR(tracer.resourceMiB(deployment.serverNicResource(0)), 0.25 * totalMiB,
              totalMiB * 1e-6);
}

TEST(Trace, RecordsCancelledFlows) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  const auto id = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 100_MiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.engine().schedule(0.5, [&] { fluid.cancelFlow(id); });
  fluid.run();

  ASSERT_FALSE(tracer.events().empty());
  const auto& last = tracer.events().back();
  EXPECT_EQ(last.kind, TraceEvent::Kind::kCancel);
  EXPECT_EQ(last.flow, id.value);
  EXPECT_EQ(last.bytes, 50_MiB);  // bytes left at cancel
  // Progress up to the cancel is banked; nothing after.
  EXPECT_NEAR(tracer.resourceMiB(link), 50.0, 1e-6);
  EXPECT_NE(tracer.toJsonl().find("\"ev\":\"cancel\""), std::string::npos);
}

TEST(Trace, WriteJsonlToFile) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  const auto path = std::filesystem::temp_directory_path() / "beesim_trace_test.jsonl";
  tracer.writeJsonl(path);
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
}

TEST(Trace, DetachesOnDestruction) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  {
    FlowTracer tracer(fluid);
  }
  // No dangling observer: the simulation must run fine after detach.
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  SUCCEED();
}

// --- FlowTracer vs. a map-keyed reference --------------------------------

/// The FlowTracer's accounting as it stood with a std::map from flow id to
/// (path, rate) and a bank over every resource: the reference the per-slot
/// table and the loaded-resource walk must reproduce bit for bit.
class MapReferenceTracer final : public FluidObserver {
 public:
  explicit MapReferenceTracer(FluidSimulator& fluid) : fluid_(fluid) {
    fluid_.addObserver(this);
    lastBankTime_ = fluid_.now();
    ensureResources(fluid_.resourceCount());
  }
  ~MapReferenceTracer() override { fluid_.removeObserver(this); }

  void setMetricsInterval(util::Seconds dt) {
    metricsDt_ = dt;
    nextSampleTime_ = lastBankTime_ + dt;
  }
  void trackLink(ResourceIndex link) { trackedLinks_.push_back(link); }

  void onFlowStarted(FlowId id, std::span<const ResourceIndex> path, util::Bytes bytes,
                     SimTime at) override {
    bankInterval(at);
    for (const auto r : path) ensureResources(static_cast<std::size_t>(r.value) + 1);
    for (const auto r : path) ++flows_[r.value];
    live_[id.value] = LiveFlow{{path.begin(), path.end()}, 0.0};
    events.push_back(TraceEvent{.kind = TraceEvent::Kind::kStart,
                                .time = at,
                                .flow = id.value,
                                .bytes = bytes});
  }

  void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                     std::span<const util::MiBps> rates, std::size_t activeFlows) override {
    bankInterval(at);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto it = live_.find(ids[i].value);
      if (it == live_.end()) continue;
      const double delta = rates[i] - it->second.rate;
      if (delta != 0.0) {
        for (const auto r : it->second.path) rate_[r.value] += delta;
        totalRate_ += delta;
        it->second.rate = rates[i];
      }
    }
    events.push_back(TraceEvent{.kind = TraceEvent::Kind::kRates,
                                .time = at,
                                .activeFlows = activeFlows,
                                .totalRate = totalRate_});
  }

  void onFlowCompleted(const FlowStats& stats) override {
    drop(stats.id.value, stats.endTime);
    events.push_back(TraceEvent{.kind = TraceEvent::Kind::kComplete,
                                .time = stats.endTime,
                                .flow = stats.id.value,
                                .bytes = stats.bytes,
                                .meanRate = stats.meanRate()});
  }

  void onFlowCancelled(const FlowStats& stats) override {
    drop(stats.id.value, stats.endTime);
    events.push_back(TraceEvent{.kind = TraceEvent::Kind::kCancel,
                                .time = stats.endTime,
                                .flow = stats.id.value,
                                .bytes = stats.bytes});
  }

  std::vector<TraceEvent> events;
  std::vector<MetricsSample> samples;
  std::vector<double> mib;
  std::vector<util::Seconds> busy;
  std::vector<util::MiBps> peak;

 private:
  struct LiveFlow {
    std::vector<ResourceIndex> path;
    util::MiBps rate = 0.0;
  };

  void ensureResources(std::size_t count) {
    if (count <= mib.size()) return;
    mib.resize(count, 0.0);
    busy.resize(count, 0.0);
    peak.resize(count, 0.0);
    rate_.resize(count, 0.0);
    flows_.resize(count, 0);
  }

  void bankInterval(SimTime until) {
    if (metricsDt_ > 0.0) {
      while (nextSampleTime_ <= until) {
        MetricsSample sample;
        sample.time = nextSampleTime_;
        sample.activeFlows = live_.size();
        sample.aggregateRate = totalRate_;
        for (const auto link : trackedLinks_) {
          sample.linkRates.push_back(rate_[link.value]);
          sample.linkFlows.push_back(flows_[link.value]);
        }
        sample.linkImbalance = core::linkImbalance(sample.linkRates);
        samples.push_back(std::move(sample));
        nextSampleTime_ += metricsDt_;
      }
    }
    const double dt = until - lastBankTime_;
    if (dt > 0.0) {
      for (std::size_t r = 0; r < rate_.size(); ++r) {
        if (rate_[r] > 1e-9) {
          mib[r] += rate_[r] * dt;
          busy[r] += dt;
          peak[r] = std::max(peak[r], rate_[r]);
        }
      }
    }
    lastBankTime_ = until;
  }

  void drop(std::uint64_t id, SimTime at) {
    bankInterval(at);
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    for (const auto r : it->second.path) {
      rate_[r.value] -= it->second.rate;
      if (--flows_[r.value] == 0) rate_[r.value] = 0.0;
    }
    totalRate_ -= it->second.rate;
    live_.erase(it);
    if (live_.empty()) totalRate_ = 0.0;
  }

  FluidSimulator& fluid_;
  std::map<std::uint64_t, LiveFlow> live_;
  std::vector<util::MiBps> rate_;
  std::vector<std::uint32_t> flows_;
  util::MiBps totalRate_ = 0.0;
  SimTime lastBankTime_ = 0.0;
  util::Seconds metricsDt_ = 0.0;
  SimTime nextSampleTime_ = 0.0;
  std::vector<ResourceIndex> trackedLinks_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expectSameAccounting(const FlowTracer& tracer, const MapReferenceTracer& reference) {
  const auto& got = tracer.events();
  const auto& want = reference.events;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << "event " << i;
    EXPECT_EQ(bits(got[i].time), bits(want[i].time)) << "event " << i;
    EXPECT_EQ(got[i].flow, want[i].flow) << "event " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << "event " << i;
    EXPECT_EQ(bits(got[i].meanRate), bits(want[i].meanRate)) << "event " << i;
    EXPECT_EQ(got[i].activeFlows, want[i].activeFlows) << "event " << i;
    EXPECT_EQ(bits(got[i].totalRate), bits(want[i].totalRate)) << "event " << i;
  }
  const auto& samples = tracer.samples();
  ASSERT_EQ(samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& a = samples[i];
    const auto& b = reference.samples[i];
    EXPECT_EQ(bits(a.time), bits(b.time)) << "sample " << i;
    EXPECT_EQ(a.activeFlows, b.activeFlows) << "sample " << i;
    EXPECT_EQ(bits(a.aggregateRate), bits(b.aggregateRate)) << "sample " << i;
    ASSERT_EQ(a.linkRates.size(), b.linkRates.size());
    for (std::size_t l = 0; l < a.linkRates.size(); ++l) {
      EXPECT_EQ(bits(a.linkRates[l]), bits(b.linkRates[l])) << "sample " << i << " link " << l;
    }
    EXPECT_EQ(a.linkFlows, b.linkFlows) << "sample " << i;
    EXPECT_EQ(bits(a.linkImbalance), bits(b.linkImbalance)) << "sample " << i;
  }
  const auto usage = tracer.resourceUsage();
  ASSERT_EQ(usage.size(), reference.mib.size());
  for (std::size_t r = 0; r < usage.size(); ++r) {
    EXPECT_EQ(bits(usage[r].mib), bits(reference.mib[r])) << usage[r].name;
    EXPECT_EQ(bits(usage[r].busyTime), bits(reference.busy[r])) << usage[r].name;
    EXPECT_EQ(bits(usage[r].peakRate), bits(reference.peak[r])) << usage[r].name;
  }
}

TEST(Trace, MatchesMapReferenceUnderChurn) {
  // Seeded churn: staggered starts, zero-byte flows, cancels of live and
  // finished ids, batches of identical flows whose completions start new
  // flows, a load-dependent device, and a second tracer pair attached
  // mid-run.  Each FlowTracer must report exactly what the map-keyed
  // reference attached next to it does.
  for (const std::uint64_t seed : {3u, 17u, 2024u}) {
    FluidSimulator fluid;
    std::vector<ResourceIndex> res;
    for (int i = 0; i < 6; ++i) {
      res.push_back(fluid.addResource(ResourceSpec{
          "link" + std::to_string(i), constantCapacity(60.0 + 25.0 * i)}));
    }
    res.push_back(fluid.addResource(ResourceSpec{"dev", [](const ResourceLoad& load) {
      return 40.0 + 15.0 * std::min(load.queueDepth, 4.0);
    }}));

    FlowTracer tracer(fluid);
    MapReferenceTracer reference(fluid);
    tracer.setMetricsInterval(0.25);
    reference.setMetricsInterval(0.25);
    for (int l = 0; l < 3; ++l) {
      tracer.trackLink(res[l], "link" + std::to_string(l));
      reference.trackLink(res[l]);
    }
    std::unique_ptr<FlowTracer> late;
    std::unique_ptr<MapReferenceTracer> lateReference;
    fluid.engine().schedule(2.5, [&] {
      late = std::make_unique<FlowTracer>(fluid);
      lateReference = std::make_unique<MapReferenceTracer>(fluid);
      late->setMetricsInterval(0.4);
      lateReference->setMetricsInterval(0.4);
      for (int l = 3; l < 6; ++l) {
        late->trackLink(res[l], "link" + std::to_string(l));
        lateReference->trackLink(res[l]);
      }
    });

    util::Rng rng(seed);
    std::vector<FlowId> ids;
    int followersLeft = 40;
    std::size_t zeroByte = 0;
    const auto randomSpec = [&] {
      FlowSpec spec;
      const auto len = static_cast<std::size_t>(rng.uniformInt(1, 3));
      for (const auto r : rng.sampleWithoutReplacement(res.size(), len)) {
        spec.path.push_back(res[r]);
      }
      spec.bytes = rng.bernoulli(0.15)
                       ? 0
                       : static_cast<util::Bytes>(rng.uniformInt(1, 40)) * 1_MiB;
      spec.queueWeight = rng.bernoulli(0.3) ? 2.0 : 1.0;
      spec.rateCap = rng.bernoulli(0.2) ? rng.uniform(10.0, 50.0) : 0.0;
      return spec;
    };
    std::function<void(const FlowStats&)> chain = [&](const FlowStats&) {
      if (followersLeft <= 0) return;
      --followersLeft;
      auto spec = randomSpec();
      if (spec.bytes == 0) ++zeroByte;
      if (rng.bernoulli(0.5)) spec.onComplete = chain;
      ids.push_back(fluid.startFlow(std::move(spec)));
    };
    for (int i = 0; i < 40; ++i) {
      fluid.engine().schedule(rng.uniform(0.0, 5.0), [&] {
        auto spec = randomSpec();
        const int copies = rng.bernoulli(0.3) ? 3 : 1;  // a batch finishes together
        for (int c = 0; c < copies; ++c) {
          auto copy = spec;
          if (copy.bytes == 0) ++zeroByte;
          copy.onComplete = chain;
          ids.push_back(fluid.startFlow(std::move(copy)));
        }
      });
    }
    std::size_t cancelled = 0;
    for (int i = 0; i < 15; ++i) {
      fluid.engine().schedule(rng.uniform(0.5, 6.0), [&] {
        if (ids.empty()) return;
        const auto pick = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(ids.size()) - 1));
        if (fluid.cancelFlow(ids[pick]).has_value()) ++cancelled;
      });
    }
    fluid.run();

    ASSERT_NE(late, nullptr);
    EXPECT_GT(cancelled, 0u) << "seed " << seed;
    EXPECT_GT(zeroByte, 0u) << "seed " << seed;
    EXPECT_EQ(followersLeft, 0) << "seed " << seed;
    EXPECT_FALSE(tracer.samples().empty());
    EXPECT_FALSE(late->samples().empty());
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectSameAccounting(tracer, reference);
    expectSameAccounting(*late, *lateReference);
  }
}

// --- RingTraceSink ------------------------------------------------------

TEST(RingTrace, RecordsFlowLifecycle) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 64);
  const auto nic = fluid.addResource(ResourceSpec{"nic", constantCapacity(200.0)});
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  const auto id = fluid.startFlow(FlowSpec{.path = {nic, link}, .bytes = 100_MiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.run();

  EXPECT_EQ(ring.capacity(), 64u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.recorded(), ring.size());
  const auto records = ring.snapshot();
  ASSERT_GE(records.size(), 3u);
  EXPECT_EQ(records.front().kind,
            static_cast<std::uint32_t>(TraceEvent::Kind::kStart));
  EXPECT_EQ(records.front().flow, id.value);
  EXPECT_EQ(records.front().bytes, 100_MiB);
  EXPECT_EQ(records.front().aux, 2u) << "kStart aux carries the path length";
  EXPECT_EQ(records.back().kind,
            static_cast<std::uint32_t>(TraceEvent::Kind::kComplete));
  EXPECT_EQ(records.back().bytes, 100_MiB);
  EXPECT_NEAR(records.back().value, 100.0, 1e-6) << "kComplete value = mean MiB/s";
  // Snapshot is oldest first and time-sorted.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time);
  }
}

TEST(RingTrace, WrapOverwritesOldestAndCountsDrops) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 4);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  for (int i = 0; i < 6; ++i) {
    fluid.startFlowAt(static_cast<double>(i), FlowSpec{
        .path = {link}, .bytes = 10_MiB, .queueWeight = 1.0, .rateCap = 0.0,
        .onComplete = nullptr});
  }
  fluid.run();

  EXPECT_EQ(ring.size(), 4u);
  EXPECT_GT(ring.recorded(), 4u);
  EXPECT_EQ(ring.dropped(), ring.recorded() - 4u);
  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The retained window is the *newest* records, oldest first.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time);
  }
  EXPECT_EQ(records.back().kind,
            static_cast<std::uint32_t>(TraceEvent::Kind::kComplete));
  // The drain announces the loss up front.
  const auto jsonl = ring.toJsonl();
  const auto firstLine = jsonl.substr(0, jsonl.find('\n'));
  const auto doc = util::parseJson(firstLine);
  EXPECT_EQ(doc.at("ev").asString(), "drops");
  EXPECT_EQ(static_cast<std::uint64_t>(doc.at("count").asNumber()), ring.dropped());
}

TEST(RingTrace, JsonlLinesAreValidJson) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 256);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  const auto id = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.engine().schedule(0.5, [&] { fluid.cancelFlow(id); });
  fluid.run();

  int lines = 0;
  bool sawCancel = false;
  for (const auto& line : util::split(ring.toJsonl(), '\n')) {
    if (line.empty()) continue;
    ++lines;
    const auto doc = util::parseJson(line);
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.has("ev"));
    if (doc.at("ev").asString() == "cancel") sawCancel = true;
  }
  EXPECT_GE(lines, 2);
  EXPECT_TRUE(sawCancel);
}

TEST(RingTrace, ChromeTraceIsValidJson) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 256);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  const auto doc = util::parseJson(ring.toChromeTrace());
  ASSERT_TRUE(doc.isObject());
  ASSERT_TRUE(doc.has("traceEvents"));
  EXPECT_GT(doc.at("traceEvents").asArray().size(), 0u);
}

TEST(RingTrace, WritesJsonlToFile) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 64);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  const auto path = std::filesystem::temp_directory_path() / "beesim_ring_test.jsonl";
  ring.writeJsonl(path);
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
}

TEST(RingTrace, DetachesOnDestructionAndRejectsZeroCapacity) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  {
    RingTraceSink ring(fluid, 8);
  }
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  EXPECT_THROW(RingTraceSink(fluid, 0), util::ContractError);
}

TEST(RingTrace, ComposesWithFlowTracer) {
  // Both sinks observe the same run through the observer hub; the cheap ring
  // must not perturb the exact tracer's accounting.
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  RingTraceSink ring(fluid, 128);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 50_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  EXPECT_NEAR(tracer.resourceMiB(link), 50.0, 1e-6);
  EXPECT_GE(ring.size(), 3u);
}

}  // namespace
}  // namespace beesim::sim
