// Flow tracing, resource utilization accounting and metrics export -- the
// run-level observability layer over the fluid core.
//
// A FlowTracer observes a FluidSimulator and produces four artefacts:
//
//   * on request (enableEventLog), an event log (flow start / rate change /
//     completion / cancellation) exportable as JSONL -- one JSON object per
//     line, loadable into pandas or jq for post-mortem timeline analysis of
//     a run;
//   * per-resource utilization: bytes carried and busy time, integrated
//     from the piecewise-constant rate vector.  Because every flow crosses
//     its bottleneck resource, these integrals give exact link/OST/OSS
//     traffic decompositions ("how much of the run went through server 1's
//     link?") that the bandwidth summary alone cannot answer;
//   * an optional virtual-time metrics series (setMetricsInterval): at every
//     multiple of dt the tracer samples the aggregate rate, each tracked
//     link's rate and a live link-imbalance index -- the time-resolved view
//     of the paper's (min,max) balance story;
//   * a Chrome-trace/Perfetto export (toChromeTrace, event log required):
//     flows as async b/e events plus counter tracks, loadable into
//     chrome://tracing or https://ui.perfetto.dev.
//
// The tracer is exact, not sampled: it banks rate * dt on every re-solve.
// It attaches through FluidSimulator::addObserver, so it composes with any
// other observer instead of clobbering the slot (see sim/observer_hub.hpp).
//
// The FlowTracer costs O(path) per flow start, end and reported rate change,
// plus one walk over the resources that carry flows per banked interval; its
// live flows sit in a table indexed by the flow handle's slot.  The event log
// (one 56-byte record per start, end and resolve) is kept only when an
// exporter asks for it: the health monitor, the rebalance controller and
// the harness' utilization tracer never read it.  Measured on perfbench
// (seed 1, 4 threads of a Xeon host, 10-s windows), one tracer per run
// (--utilization) takes paper_campaign from 0.026 s to 0.041 s (+55%) and
// the 4096-node scale_32k campaign from 0.163 s to 0.330 s (+103%); on
// gray_failure, where the health monitor's tracer is the only observer,
// its callbacks are 7% of self time (gprof, seed 1, 1 thread, 3 passes;
// the mitigated runs alone spent 25% there while the log was kept).
//
// RingTraceSink is the cheap alternative (--trace-format=ring): every
// observer callback appends one fixed-width 40-byte binary record to a
// preallocated ring buffer -- no map, no per-resource state, no allocation,
// no formatting -- and the ring is rendered to JSONL / Chrome-trace only on
// flush.  When the ring wraps, the oldest records are overwritten and
// counted (dropped()), so memory stays bounded no matter how long the run.
#pragma once

#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/fluid.hpp"

namespace beesim::sim {

/// One recorded event (kept binary-compact; rendered to JSON on export).
struct TraceEvent {
  enum class Kind { kStart, kRates, kComplete, kCancel };
  Kind kind = Kind::kStart;
  SimTime time = 0.0;
  std::uint64_t flow = 0;      // kStart/kComplete/kCancel
  util::Bytes bytes = 0;       // kStart: size; kComplete: moved; kCancel: left
  util::MiBps meanRate = 0.0;  // kComplete
  std::size_t activeFlows = 0; // kRates
  util::MiBps totalRate = 0.0; // kRates: sum over flows
};

/// Aggregated per-resource counters.
struct ResourceUsage {
  std::string name;
  /// Total bytes carried (sum of crossing flows' rate * dt).
  double mib = 0.0;
  /// Virtual time with at least one active flow crossing the resource.
  util::Seconds busyTime = 0.0;
  /// Peak aggregate rate observed.
  util::MiBps peakRate = 0.0;
};

/// One virtual-time sample of the metrics series (see setMetricsInterval).
struct MetricsSample {
  SimTime time = 0.0;
  std::size_t activeFlows = 0;
  /// Sum of all live flows' current rates (MiB/s).
  util::MiBps aggregateRate = 0.0;
  /// Current aggregate rate through each tracked link (trackLink order).
  std::vector<util::MiBps> linkRates;
  /// Active flows currently crossing each tracked link (trackLink order).
  /// Lets peer-relative consumers (the HealthMonitor) distinguish "idle" --
  /// no evidence -- from "has traffic but moves nothing" (dead-but-online).
  std::vector<std::uint32_t> linkFlows;
  /// max/mean over the tracked links' rates: 1 = perfectly balanced,
  /// H = everything through one of H links, 0 = all links idle.
  double linkImbalance = 0.0;
};

class FlowTracer final : public FluidObserver {
 public:
  /// Attaches to `fluid` via addObserver (composes with other observers);
  /// detaches itself -- and only itself -- on destruction.
  explicit FlowTracer(FluidSimulator& fluid);
  ~FlowTracer() override;

  FlowTracer(const FlowTracer&) = delete;
  FlowTracer& operator=(const FlowTracer&) = delete;

  // FluidObserver:
  void onFlowStarted(FlowId id, std::span<const ResourceIndex> path, util::Bytes bytes,
                     SimTime at) override;
  void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                     std::span<const util::MiBps> rates, std::size_t activeFlows) override;
  void onFlowCompleted(const FlowStats& stats) override;
  void onFlowCancelled(const FlowStats& stats) override;

  /// Keep the event log from now on (off by default: only the trace
  /// exports read it).  events(), toJsonl() and toChromeTrace() require it.
  void enableEventLog() { logEvents_ = true; }
  bool eventLogEnabled() const { return logEvents_; }

  const std::vector<TraceEvent>& events() const;

  // -- Metrics series ----------------------------------------------------

  /// Sample the metrics series every `dt` virtual seconds (first sample at
  /// attach time + dt).  <= 0 disables (the default).
  void setMetricsInterval(util::Seconds dt);

  /// Add a link (any resource) to the per-sample rate breakdown and the
  /// imbalance index; `name` labels its CSV column / counter track.
  void trackLink(ResourceIndex link, std::string name);

  const std::vector<MetricsSample>& samples() const { return samples_; }
  const std::vector<std::string>& trackedLinkNames() const { return linkNames_; }

  /// Invoked synchronously after each metrics sample is recorded (virtual
  /// time, inside observer dispatch).  Consumers that react by mutating the
  /// simulation -- e.g. the rebalance controller starting migration flows --
  /// must defer their action via the engine (scheduleAfter) instead of
  /// calling into FluidSimulator from the callback.
  void setSampleListener(std::function<void(const MetricsSample&)> listener) {
    sampleListener_ = std::move(listener);
  }

  /// Metrics series as CSV: t,active_flows,aggregate_mibps,link_imbalance
  /// plus one column per tracked link.
  std::string metricsCsv() const;
  void writeMetricsCsv(const std::filesystem::path& path) const;

  // -- Utilization -------------------------------------------------------

  /// Per-resource usage, in resource-index order.  Covers *every* resource
  /// of the simulator -- idle ones report zero rows -- so per-server
  /// aggregations can index it by deployment resource.
  std::vector<ResourceUsage> resourceUsage() const;

  /// Total MiB carried by one resource.
  double resourceMiB(ResourceIndex resource) const;

  /// Virtual time during which `resource` had at least one active flow.
  util::Seconds resourceBusyTime(ResourceIndex resource) const;

  // -- Exports -----------------------------------------------------------

  /// Export the event log as JSONL.  Each line is one event object:
  ///   {"ev":"start","t":...,"flow":...,"bytes":...}
  ///   {"ev":"rates","t":...,"active":...,"total_mibps":...}
  ///   {"ev":"complete","t":...,"flow":...,"bytes":...,"mean_mibps":...}
  ///   {"ev":"cancel","t":...,"flow":...,"bytes_left":...}
  std::string toJsonl() const;
  void writeJsonl(const std::filesystem::path& path) const;

  /// Export as a Chrome-trace JSON object (chrome://tracing, Perfetto):
  /// flows as async "b"/"e" events (id = flow id), aggregate rate, active
  /// flows and tracked-link rates as counter tracks.  Timestamps are in
  /// microseconds of virtual time.
  std::string toChromeTrace() const;
  void writeChromeTrace(const std::filesystem::path& path) const;

 private:
  void ensureResourceCapacity(std::size_t count);
  void bankInterval(SimTime until);
  void recordSample(SimTime at);
  void dropFlow(FlowId id, SimTime at);

  /// A live flow this tracer saw start, in the per-slot table.
  struct LiveFlow {
    std::uint64_t id = 0;  // full handle; 0 = no live flow in this slot
    util::MiBps rate = 0.0;
    std::vector<ResourceIndex> path;  // keeps its capacity across tenants
  };
  /// The table entry of a live flow, or nullptr (unknown, finished, or
  /// started before this tracer attached).
  LiveFlow* liveFlow(FlowId id);

  FluidSimulator& fluid_;
  bool logEvents_ = false;
  std::vector<TraceEvent> events_;
  /// Indexed by a handle's low 32 bits (its slot) and checked against the
  /// full handle.  The simulator hands a slot to a new flow only after the
  /// previous tenant's completion or cancellation was reported, so a slot
  /// holds at most one live flow.
  std::vector<LiveFlow> live_;
  std::size_t liveCount_ = 0;

  // Per-resource accounting, sized from fluid_.resourceCount() at attach
  // time (and grown if resources are added later).  resourceRate_ and
  // resourceFlows_ are maintained incrementally per event.  Banking an
  // interval walks loadedRes_, the resources with resourceFlows_ > 0
  // (lazily compacted; resListed_ marks members) -- an uncrossed resource's
  // rate is exactly 0, so it has nothing to bank.
  std::vector<double> resourceMiB_;
  std::vector<util::Seconds> resourceBusy_;
  std::vector<util::MiBps> resourcePeak_;
  std::vector<util::MiBps> resourceRate_;
  std::vector<std::uint32_t> resourceFlows_;
  std::vector<char> resListed_;
  std::vector<std::uint32_t> loadedRes_;
  util::MiBps totalRate_ = 0.0;
  SimTime lastBankTime_ = 0.0;

  // Metrics series state.
  util::Seconds metricsDt_ = 0.0;
  SimTime nextSampleTime_ = 0.0;
  std::vector<MetricsSample> samples_;
  std::vector<ResourceIndex> trackedLinks_;
  std::vector<std::string> linkNames_;
  std::function<void(const MetricsSample&)> sampleListener_;
};

/// One fixed-width binary trace record.  Exactly 40 bytes and trivially
/// copyable, so a ring of them is a single flat allocation and an append is
/// one struct store.  Field meaning by kind (TraceEvent::Kind values):
///   kStart:    flow = id, bytes = size,              aux = path length
///   kRates:    flow = 0,  bytes = active flow count, value = sum of the
///              re-solved flows' rates (MiB/s),       aux = flows re-solved
///   kComplete: flow = id, bytes = moved, value = mean MiB/s
///   kCancel:   flow = id, bytes = bytes left untransferred
struct RingRecord {
  double time = 0.0;
  std::uint64_t flow = 0;
  std::uint64_t bytes = 0;
  double value = 0.0;
  std::uint32_t kind = 0;  // static_cast<uint32_t>(TraceEvent::Kind)
  std::uint32_t aux = 0;
};
static_assert(sizeof(RingRecord) == 40, "ring record layout is part of the format");

/// Bounded-memory, allocation-free event sink (--trace-format=ring).
///
/// Attaches through addObserver like FlowTracer and records the same flow
/// lifecycle, but keeps no per-flow or per-resource state: each callback
/// writes one RingRecord into a preallocated ring.  Rate events therefore
/// carry the *re-solved components'* aggregate rate, not the global total
/// (maintaining the global total is exactly the per-flow bookkeeping this
/// sink exists to avoid); the JSONL drain labels it `solved_mibps`.
class RingTraceSink final : public FluidObserver {
 public:
  /// `capacity` is the ring size in records (40 bytes each); once exceeded,
  /// the oldest records are overwritten and counted in dropped().
  RingTraceSink(FluidSimulator& fluid, std::size_t capacity);
  ~RingTraceSink() override;

  RingTraceSink(const RingTraceSink&) = delete;
  RingTraceSink& operator=(const RingTraceSink&) = delete;

  // FluidObserver:
  void onFlowStarted(FlowId id, std::span<const ResourceIndex> path, util::Bytes bytes,
                     SimTime at) override;
  void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                     std::span<const util::MiBps> rates, std::size_t activeFlows) override;
  void onFlowCompleted(const FlowStats& stats) override;
  void onFlowCancelled(const FlowStats& stats) override;

  std::size_t capacity() const { return records_.size(); }
  /// Records currently held (<= capacity()).
  std::size_t size() const;
  /// Total records ever appended, including overwritten ones.
  std::uint64_t recorded() const { return written_; }
  /// Records lost to ring wrap-around (recorded() - size()).
  std::uint64_t dropped() const;

  /// The retained records, oldest first (copies out of the ring; the live
  /// ring is never exposed because its physical order wraps).
  std::vector<RingRecord> snapshot() const;

  /// Render the retained records as JSONL (same event vocabulary as
  /// FlowTracer::toJsonl; rates lines carry `solved_mibps`).  When records
  /// were dropped, the first line is {"ev":"drops","count":N}.
  std::string toJsonl() const;
  void writeJsonl(const std::filesystem::path& path) const;

  /// Render as Chrome-trace JSON: flows as async b/e events plus
  /// solved_mibps / active_flows counter tracks.
  std::string toChromeTrace() const;
  void writeChromeTrace(const std::filesystem::path& path) const;

 private:
  void push(const RingRecord& record);

  FluidSimulator& fluid_;
  std::vector<RingRecord> records_;  // fixed size; slot = written_ % capacity
  std::uint64_t written_ = 0;
};

}  // namespace beesim::sim
