#include "sim/trace.hpp"

#include <algorithm>
#include <fstream>

#include "core/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace beesim::sim {

namespace {
// A resource is considered busy above this aggregate rate (MiB/s).  The
// incremental rate bookkeeping adds/subtracts per-flow rates, so exact
// zeros are restored whenever a resource's crossing-flow count hits zero;
// the epsilon only guards stalled-but-populated resources against
// floating-point residue being counted as busy time.
constexpr double kBusyEpsMiBps = 1e-9;
}  // namespace

FlowTracer::FlowTracer(FluidSimulator& fluid) : fluid_(fluid) {
  fluid_.addObserver(this);
  lastBankTime_ = fluid_.now();
  // Size the accounting from the deployment's resource inventory up front so
  // idle resources get zero rows in resourceUsage() (resources added after
  // attach grow the vectors on first use).
  ensureResourceCapacity(fluid_.resourceCount());
}

FlowTracer::~FlowTracer() { fluid_.removeObserver(this); }

void FlowTracer::ensureResourceCapacity(std::size_t count) {
  if (count <= resourceMiB_.size()) return;
  resourceMiB_.resize(count, 0.0);
  resourceBusy_.resize(count, 0.0);
  resourcePeak_.resize(count, 0.0);
  resourceRate_.resize(count, 0.0);
  resourceFlows_.resize(count, 0);
  resListed_.resize(count, 0);
}

void FlowTracer::setMetricsInterval(util::Seconds dt) {
  metricsDt_ = dt;
  if (dt > 0.0) nextSampleTime_ = lastBankTime_ + dt;
}

void FlowTracer::trackLink(ResourceIndex link, std::string name) {
  ensureResourceCapacity(static_cast<std::size_t>(link.value) + 1);
  trackedLinks_.push_back(link);
  linkNames_.push_back(std::move(name));
}

void FlowTracer::recordSample(SimTime at) {
  MetricsSample sample;
  sample.time = at;
  sample.activeFlows = liveCount_;
  sample.aggregateRate = totalRate_;
  sample.linkRates.reserve(trackedLinks_.size());
  sample.linkFlows.reserve(trackedLinks_.size());
  for (const auto link : trackedLinks_) {
    sample.linkRates.push_back(resourceRate_[link.value]);
    sample.linkFlows.push_back(resourceFlows_[link.value]);
  }
  sample.linkImbalance = core::linkImbalance(sample.linkRates);
  samples_.push_back(std::move(sample));
  if (sampleListener_) sampleListener_(samples_.back());
}

void FlowTracer::bankInterval(SimTime until) {
  // Rates are piecewise-constant: the stored per-resource rates hold over
  // (lastBankTime_, until], so samples due inside the window read them
  // directly before the caller applies the event's changes.
  if (metricsDt_ > 0.0) {
    while (nextSampleTime_ <= until) {
      recordSample(nextSampleTime_);
      nextSampleTime_ += metricsDt_;
    }
  }
  const double dt = until - lastBankTime_;
  if (dt > 0.0) {
    for (std::size_t i = 0; i < loadedRes_.size();) {
      const auto r = loadedRes_[i];
      if (resourceFlows_[r] == 0) {
        resListed_[r] = 0;
        loadedRes_[i] = loadedRes_.back();
        loadedRes_.pop_back();
        continue;
      }
      const double rate = resourceRate_[r];
      if (rate > kBusyEpsMiBps) {
        resourceMiB_[r] += rate * dt;
        resourceBusy_[r] += dt;
        resourcePeak_[r] = std::max(resourcePeak_[r], rate);
      }
      ++i;
    }
  }
  lastBankTime_ = until;
}

void FlowTracer::onFlowStarted(FlowId id, std::span<const ResourceIndex> path,
                               util::Bytes bytes, SimTime at) {
  bankInterval(at);
  std::uint32_t maxIndex = 0;
  for (const auto r : path) maxIndex = std::max(maxIndex, r.value);
  ensureResourceCapacity(static_cast<std::size_t>(maxIndex) + 1);
  for (const auto r : path) {
    if (resourceFlows_[r.value]++ == 0 && resListed_[r.value] == 0) {
      resListed_[r.value] = 1;
      loadedRes_.push_back(r.value);
    }
  }
  const auto slot = static_cast<std::uint32_t>(id.value);
  if (slot >= live_.size()) live_.resize(static_cast<std::size_t>(slot) + 1);
  auto& flow = live_[slot];
  if (flow.id == 0) ++liveCount_;
  flow.id = id.value;
  flow.rate = 0.0;
  flow.path.assign(path.begin(), path.end());
  if (!logEvents_) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kStart;
  event.time = at;
  event.flow = id.value;
  event.bytes = bytes;
  events_.push_back(event);
}

void FlowTracer::onRatesSolved(SimTime at, std::span<const FlowId> ids,
                               std::span<const util::MiBps> rates,
                               std::size_t activeFlows) {
  bankInterval(at);
  // The solver reports only the re-solved components; flows elsewhere keep
  // their previous rate, so the per-resource and total aggregates are
  // maintained by applying each reported flow's rate delta along its path.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    LiveFlow* flow = liveFlow(ids[i]);
    if (flow == nullptr) continue;
    const double delta = rates[i] - flow->rate;
    if (delta != 0.0) {
      for (const auto r : flow->path) resourceRate_[r.value] += delta;
      totalRate_ += delta;
      flow->rate = rates[i];
    }
  }
  if (!logEvents_) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kRates;
  event.time = at;
  event.activeFlows = activeFlows;
  event.totalRate = totalRate_;
  events_.push_back(event);
}

FlowTracer::LiveFlow* FlowTracer::liveFlow(FlowId id) {
  const auto slot = static_cast<std::uint32_t>(id.value);
  if (id.value == 0 || slot >= live_.size() || live_[slot].id != id.value) return nullptr;
  return &live_[slot];
}

void FlowTracer::dropFlow(FlowId id, SimTime at) {
  bankInterval(at);
  LiveFlow* flow = liveFlow(id);
  if (flow == nullptr) return;
  for (const auto r : flow->path) {
    resourceRate_[r.value] -= flow->rate;
    // Snap to exactly zero when the resource empties so +/- residue cannot
    // accumulate into phantom busy time.
    if (--resourceFlows_[r.value] == 0) resourceRate_[r.value] = 0.0;
  }
  totalRate_ -= flow->rate;
  flow->id = 0;
  if (--liveCount_ == 0) totalRate_ = 0.0;
}

void FlowTracer::onFlowCompleted(const FlowStats& stats) {
  dropFlow(stats.id, stats.endTime);
  if (!logEvents_) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kComplete;
  event.time = stats.endTime;
  event.flow = stats.id.value;
  event.bytes = stats.bytes;
  event.meanRate = stats.meanRate();
  events_.push_back(event);
}

void FlowTracer::onFlowCancelled(const FlowStats& stats) {
  dropFlow(stats.id, stats.endTime);
  if (!logEvents_) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kCancel;
  event.time = stats.endTime;
  event.flow = stats.id.value;
  event.bytes = stats.bytes;  // bytes NOT transferred (see FluidObserver)
  events_.push_back(event);
}

std::vector<ResourceUsage> FlowTracer::resourceUsage() const {
  // Cover the simulator's full resource inventory: idle resources emit zero
  // rows, so the report's length always matches resourceCount() and
  // per-server aggregations can index it directly.
  const std::size_t count = std::max(fluid_.resourceCount(), resourceMiB_.size());
  std::vector<ResourceUsage> usage;
  usage.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    ResourceUsage u;
    if (r < fluid_.resourceCount()) {
      u.name = fluid_.resourceName(ResourceIndex{static_cast<std::uint32_t>(r)});
    }
    if (r < resourceMiB_.size()) {
      u.mib = resourceMiB_[r];
      u.busyTime = resourceBusy_[r];
      u.peakRate = resourcePeak_[r];
    }
    usage.push_back(std::move(u));
  }
  return usage;
}

double FlowTracer::resourceMiB(ResourceIndex resource) const {
  if (resource.value >= resourceMiB_.size()) return 0.0;
  return resourceMiB_[resource.value];
}

util::Seconds FlowTracer::resourceBusyTime(ResourceIndex resource) const {
  if (resource.value >= resourceBusy_.size()) return 0.0;
  return resourceBusy_[resource.value];
}

const std::vector<TraceEvent>& FlowTracer::events() const {
  BEESIM_ASSERT(logEvents_, "the flow tracer's event log was not enabled");
  return events_;
}

std::string FlowTracer::toJsonl() const {
  std::string out;
  for (const auto& event : events()) {
    switch (event.kind) {
      case TraceEvent::Kind::kStart:
        out += "{\"ev\":\"start\",\"t\":" + util::fmt(event.time, 6) +
               ",\"flow\":" + std::to_string(event.flow) +
               ",\"bytes\":" + std::to_string(event.bytes) + "}\n";
        break;
      case TraceEvent::Kind::kRates:
        out += "{\"ev\":\"rates\",\"t\":" + util::fmt(event.time, 6) +
               ",\"active\":" + std::to_string(event.activeFlows) +
               ",\"total_mibps\":" + util::fmt(event.totalRate, 3) + "}\n";
        break;
      case TraceEvent::Kind::kComplete:
        out += "{\"ev\":\"complete\",\"t\":" + util::fmt(event.time, 6) +
               ",\"flow\":" + std::to_string(event.flow) +
               ",\"bytes\":" + std::to_string(event.bytes) +
               ",\"mean_mibps\":" + util::fmt(event.meanRate, 3) + "}\n";
        break;
      case TraceEvent::Kind::kCancel:
        out += "{\"ev\":\"cancel\",\"t\":" + util::fmt(event.time, 6) +
               ",\"flow\":" + std::to_string(event.flow) +
               ",\"bytes_left\":" + std::to_string(event.bytes) + "}\n";
        break;
    }
  }
  return out;
}

void FlowTracer::writeJsonl(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot write trace file: " + path.string());
  out << toJsonl();
  if (!out) throw util::IoError("failed writing trace file: " + path.string());
}

std::string FlowTracer::toChromeTrace() const {
  // Timestamps are microseconds (the Chrome trace unit) of *virtual* time.
  const auto ts = [](SimTime t) { return util::fmt(t * 1e6, 3); };
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"beesim\"}}";
  for (const auto& event : events()) {
    switch (event.kind) {
      case TraceEvent::Kind::kStart:
        out += ",\n{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"b\",\"id\":" +
               std::to_string(event.flow) + ",\"pid\":1,\"tid\":1,\"ts\":" +
               ts(event.time) + ",\"args\":{\"bytes\":" + std::to_string(event.bytes) +
               "}}";
        break;
      case TraceEvent::Kind::kComplete:
        out += ",\n{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"e\",\"id\":" +
               std::to_string(event.flow) + ",\"pid\":1,\"tid\":1,\"ts\":" +
               ts(event.time) + ",\"args\":{\"mean_mibps\":" +
               util::fmt(event.meanRate, 3) + "}}";
        break;
      case TraceEvent::Kind::kCancel:
        out += ",\n{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"e\",\"id\":" +
               std::to_string(event.flow) + ",\"pid\":1,\"tid\":1,\"ts\":" +
               ts(event.time) + ",\"args\":{\"cancelled\":true,\"bytes_left\":" +
               std::to_string(event.bytes) + "}}";
        break;
      case TraceEvent::Kind::kRates:
        out += ",\n{\"name\":\"aggregate_mibps\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
               ts(event.time) + ",\"args\":{\"mibps\":" + util::fmt(event.totalRate, 3) +
               "}}";
        out += ",\n{\"name\":\"active_flows\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
               ts(event.time) + ",\"args\":{\"flows\":" +
               std::to_string(event.activeFlows) + "}}";
        break;
    }
  }
  // Tracked-link counter tracks from the metrics series (if sampling).
  for (const auto& sample : samples_) {
    if (!sample.linkRates.empty()) {
      out += ",\n{\"name\":\"link_mibps\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
             ts(sample.time) + ",\"args\":{";
      for (std::size_t i = 0; i < sample.linkRates.size(); ++i) {
        if (i > 0) out += ",";
        out += util::JsonValue(linkNames_[i]).dump() + ":" +
               util::fmt(sample.linkRates[i], 3);
      }
      out += "}}";
      out += ",\n{\"name\":\"link_imbalance\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
             ts(sample.time) + ",\"args\":{\"imbalance\":" +
             util::fmt(sample.linkImbalance, 4) + "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

void FlowTracer::writeChromeTrace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot write trace file: " + path.string());
  out << toChromeTrace();
  if (!out) throw util::IoError("failed writing trace file: " + path.string());
}

std::string FlowTracer::metricsCsv() const {
  std::string out = "t,active_flows,aggregate_mibps,link_imbalance";
  for (const auto& name : linkNames_) {
    out += ',';
    out += name;
  }
  out += '\n';
  for (const auto& sample : samples_) {
    out += util::fmt(sample.time, 6) + "," + std::to_string(sample.activeFlows) + "," +
           util::fmt(sample.aggregateRate, 3) + "," + util::fmt(sample.linkImbalance, 4);
    for (const auto rate : sample.linkRates) {
      out += ',';
      out += util::fmt(rate, 3);
    }
    out += '\n';
  }
  return out;
}

void FlowTracer::writeMetricsCsv(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot write metrics file: " + path.string());
  out << metricsCsv();
  if (!out) throw util::IoError("failed writing metrics file: " + path.string());
}

// --- RingTraceSink -----------------------------------------------------

RingTraceSink::RingTraceSink(FluidSimulator& fluid, std::size_t capacity)
    : fluid_(fluid) {
  BEESIM_ASSERT(capacity >= 1, "ring trace sink needs capacity >= 1 record");
  records_.resize(capacity);  // the sink's only allocation
  fluid_.addObserver(this);
}

RingTraceSink::~RingTraceSink() { fluid_.removeObserver(this); }

void RingTraceSink::push(const RingRecord& record) {
  records_[static_cast<std::size_t>(written_ % records_.size())] = record;
  ++written_;
}

std::size_t RingTraceSink::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(written_, records_.size()));
}

std::uint64_t RingTraceSink::dropped() const { return written_ - size(); }

void RingTraceSink::onFlowStarted(FlowId id, std::span<const ResourceIndex> path,
                                  util::Bytes bytes, SimTime at) {
  RingRecord r;
  r.time = at;
  r.flow = id.value;
  r.bytes = bytes;
  r.kind = static_cast<std::uint32_t>(TraceEvent::Kind::kStart);
  r.aux = static_cast<std::uint32_t>(path.size());
  push(r);
}

void RingTraceSink::onRatesSolved(SimTime at, std::span<const FlowId> ids,
                                  std::span<const util::MiBps> rates,
                                  std::size_t activeFlows) {
  (void)ids;
  double solved = 0.0;
  for (const auto rate : rates) solved += rate;
  RingRecord r;
  r.time = at;
  r.bytes = activeFlows;
  r.value = solved;
  r.kind = static_cast<std::uint32_t>(TraceEvent::Kind::kRates);
  r.aux = static_cast<std::uint32_t>(rates.size());
  push(r);
}

void RingTraceSink::onFlowCompleted(const FlowStats& stats) {
  RingRecord r;
  r.time = stats.endTime;
  r.flow = stats.id.value;
  r.bytes = stats.bytes;
  r.value = stats.meanRate();
  r.kind = static_cast<std::uint32_t>(TraceEvent::Kind::kComplete);
  push(r);
}

void RingTraceSink::onFlowCancelled(const FlowStats& stats) {
  RingRecord r;
  r.time = stats.endTime;
  r.flow = stats.id.value;
  r.bytes = stats.bytes;  // bytes NOT transferred (see FluidObserver)
  r.kind = static_cast<std::uint32_t>(TraceEvent::Kind::kCancel);
  push(r);
}

std::vector<RingRecord> RingTraceSink::snapshot() const {
  const std::size_t n = size();
  std::vector<RingRecord> out;
  out.reserve(n);
  // Oldest retained record lives at written_ - n (mod capacity).
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(
        records_[static_cast<std::size_t>((written_ - n + i) % records_.size())]);
  }
  return out;
}

std::string RingTraceSink::toJsonl() const {
  std::string out;
  if (dropped() > 0) {
    out += "{\"ev\":\"drops\",\"count\":" + std::to_string(dropped()) + "}\n";
  }
  for (const auto& r : snapshot()) {
    switch (static_cast<TraceEvent::Kind>(r.kind)) {
      case TraceEvent::Kind::kStart:
        out += "{\"ev\":\"start\",\"t\":" + util::fmt(r.time, 6) +
               ",\"flow\":" + std::to_string(r.flow) +
               ",\"bytes\":" + std::to_string(r.bytes) + "}\n";
        break;
      case TraceEvent::Kind::kRates:
        out += "{\"ev\":\"rates\",\"t\":" + util::fmt(r.time, 6) +
               ",\"active\":" + std::to_string(r.bytes) +
               ",\"solved\":" + std::to_string(r.aux) +
               ",\"solved_mibps\":" + util::fmt(r.value, 3) + "}\n";
        break;
      case TraceEvent::Kind::kComplete:
        out += "{\"ev\":\"complete\",\"t\":" + util::fmt(r.time, 6) +
               ",\"flow\":" + std::to_string(r.flow) +
               ",\"bytes\":" + std::to_string(r.bytes) +
               ",\"mean_mibps\":" + util::fmt(r.value, 3) + "}\n";
        break;
      case TraceEvent::Kind::kCancel:
        out += "{\"ev\":\"cancel\",\"t\":" + util::fmt(r.time, 6) +
               ",\"flow\":" + std::to_string(r.flow) +
               ",\"bytes_left\":" + std::to_string(r.bytes) + "}\n";
        break;
    }
  }
  return out;
}

void RingTraceSink::writeJsonl(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot write trace file: " + path.string());
  out << toJsonl();
  if (!out) throw util::IoError("failed writing trace file: " + path.string());
}

std::string RingTraceSink::toChromeTrace() const {
  const auto ts = [](SimTime t) { return util::fmt(t * 1e6, 3); };
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"beesim\"}}";
  for (const auto& r : snapshot()) {
    switch (static_cast<TraceEvent::Kind>(r.kind)) {
      case TraceEvent::Kind::kStart:
        out += ",\n{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"b\",\"id\":" +
               std::to_string(r.flow) + ",\"pid\":1,\"tid\":1,\"ts\":" + ts(r.time) +
               ",\"args\":{\"bytes\":" + std::to_string(r.bytes) + "}}";
        break;
      case TraceEvent::Kind::kComplete:
        out += ",\n{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"e\",\"id\":" +
               std::to_string(r.flow) + ",\"pid\":1,\"tid\":1,\"ts\":" + ts(r.time) +
               ",\"args\":{\"mean_mibps\":" + util::fmt(r.value, 3) + "}}";
        break;
      case TraceEvent::Kind::kCancel:
        out += ",\n{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"e\",\"id\":" +
               std::to_string(r.flow) + ",\"pid\":1,\"tid\":1,\"ts\":" + ts(r.time) +
               ",\"args\":{\"cancelled\":true,\"bytes_left\":" +
               std::to_string(r.bytes) + "}}";
        break;
      case TraceEvent::Kind::kRates:
        out += ",\n{\"name\":\"solved_mibps\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
               ts(r.time) + ",\"args\":{\"mibps\":" + util::fmt(r.value, 3) + "}}";
        out += ",\n{\"name\":\"active_flows\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
               ts(r.time) + ",\"args\":{\"flows\":" + std::to_string(r.bytes) + "}}";
        break;
    }
  }
  out += "\n]}\n";
  return out;
}

void RingTraceSink::writeChromeTrace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot write trace file: " + path.string());
  out << toChromeTrace();
  if (!out) throw util::IoError("failed writing trace file: " + path.string());
}

}  // namespace beesim::sim
