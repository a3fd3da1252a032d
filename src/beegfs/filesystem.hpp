// FileSystem facade: the client-visible API of the simulated BeeGFS.
//
// Mirrors what an application (or IOR) sees: directories carry striping
// settings (stripe count + chunk size, set per folder by the administrator,
// Section II); creating a file picks its targets with the configured
// heuristic; writes are asynchronous fluid flows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "beegfs/chooser.hpp"
#include "beegfs/deployment.hpp"
#include "beegfs/stripe.hpp"

namespace beesim::qos {
class QosManager;
}

namespace beesim::beegfs {

struct FileHandle {
  std::size_t value = 0;
  friend bool operator==(FileHandle a, FileHandle b) { return a.value == b.value; }
};

struct FileInfo {
  std::string path;
  StripePattern pattern;
  util::Bytes size = 0;
  /// Mirrored file: every pattern target is a mirror-group anchor and chunks
  /// are routed to the group's *current* primary (so failover redirects new
  /// chunks without touching the pattern).
  bool mirrored = false;
};

class FileSystem {
 public:
  /// `chooserRng` drives the target-choice heuristic.
  FileSystem(Deployment& deployment, util::Rng chooserRng);

  Deployment& deployment() { return deployment_; }

  /// Create/replace a directory with explicit striping settings.  Parent
  /// directories are not required to exist (flat namespace keyed by path).
  void mkdir(const std::string& path, const StripeSettings& settings);

  /// Striping settings a file created under `path` would receive (deepest
  /// matching directory prefix; falls back to the deployment default).
  StripeSettings settingsFor(const std::string& path) const;

  /// Create a file; its targets are chosen by the configured heuristic.
  /// The stripe count is clamped to the number of online targets.
  FileHandle create(const std::string& path);

  /// Create a file with an explicitly pinned target list (used by benches
  /// that need a specific allocation, e.g. Fig. 13's shared-vs-disjoint
  /// comparison) and chunk size.
  FileHandle createPinned(const std::string& path, std::vector<std::size_t> targets,
                          util::Bytes chunkSize);

  const FileInfo& info(FileHandle handle) const;
  std::size_t fileCount() const { return files_.size(); }

  /// Asynchronously write [offset, offset+length) of `handle` from compute
  /// node `node`.  `queueWeight` is the outstanding-request weight this
  /// write contributes to each crossed resource (the IOR runner computes it
  /// from the node's worker budget).  `done` fires (once) with the
  /// completion time after the last byte lands.
  void writeAsync(std::size_t node, FileHandle handle, util::Bytes offset, util::Bytes length,
                  double queueWeight, std::function<void(util::Seconds)> done);

  /// Asynchronously read [offset, offset+length) of `handle` into compute
  /// node `node`.  The range must lie within the file.  Reads cross the same
  /// resources as writes (the paper expects read behaviour to mirror write
  /// behaviour w.r.t. target allocation; Section III-B).
  void readAsync(std::size_t node, FileHandle handle, util::Bytes offset, util::Bytes length,
                 double queueWeight, std::function<void(util::Seconds)> done);

  /// Set a file's logical size without moving data (ftruncate semantics;
  /// lets tests and read benchmarks materialize pre-existing files).
  void truncate(FileHandle handle, util::Bytes size);

  /// The chooser in use (inspectable by tests).
  TargetChooser& chooser() { return *chooser_; }

  // -- Rebalancing hooks (src/control/; see DESIGN.md §2.6). ---------------

  /// Wrap the configured chooser in a WeightedChooser consulting the mgmtd
  /// per-host weights (the controller's retarget lever).  Idempotent; with
  /// uniform weights the wrapper is behaviourally invisible.
  void enableWeightedChooser();

  /// Target currently serving a stripe slot: the pattern target, or its
  /// substitute after a failover/migration.
  std::size_t effectiveTarget(FileHandle handle, std::size_t slot) const;

  /// Bytes of the file currently resident on a stripe slot.
  util::Bytes slotBytes(FileHandle handle, std::size_t slot) const;

  /// Migrate a stripe slot to `newTarget`: future chunks of the slot address
  /// the new target immediately (substitute entry), while the resident bytes
  /// stream over as a background server-to-server flow with the given queue
  /// weight and rate cap (0 = unlimited), reusing the resync flow model.
  /// `done` fires with the flow stats when the stream lands; cancel via
  /// Deployment::fluid().cancelFlow.  Returns the flow id.
  sim::FlowId migrateSlot(FileHandle handle, std::size_t slot, std::size_t newTarget,
                          double queueWeight, double rateCap,
                          std::function<void(const sim::FlowStats&)> done);

  // -- Mid-run fault semantics (ClientFaultPolicy; see src/faults/). -------

  /// Cumulative client-side failure accounting across all transfers.
  const ClientFaultStats& faultStats() const { return faultStats_; }

  /// True once a chunk failure aborted the job (strict mode, or degraded
  /// mode with no surviving target).  Runners stop issuing new work.
  bool faultsAborted() const { return faultStats_.aborted; }

  /// Substitute target a stripe slot of `handle` failed over to, if any
  /// (inspectable by tests; keyed by slot index within the stripe pattern).
  std::map<std::size_t, std::size_t> degradedSlots(FileHandle handle) const;

  // -- Buddy mirroring (MirrorPolicy; see DESIGN.md §2.4). -----------------

  /// Cumulative mirroring/resync accounting across all transfers.
  const MirrorStats& mirrorStats() const { return mirrorStats_; }

  /// True while a background resync flow is streaming group `id`'s delta.
  bool resyncActive(std::size_t id) const;

  // -- Hedged writes (HedgePolicy; see DESIGN.md §2.9). --------------------

  /// Cumulative hedging accounting across all transfers.
  const HedgeStats& hedgeStats() const { return hedgeStats_; }

  /// In-flight chunks currently tracked for hedging (inspectable by tests).
  std::size_t hedgedInFlight() const { return hedgedLive_; }

  /// Quarantine mitigation for mirrored files: switch over every good
  /// mirror group whose *current primary* sits on `host` to its replica
  /// (the mirrored equivalent of a hedge; gated on HedgePolicy::enabled).
  /// Called by the HealthMonitor, deferred out of observer dispatch.
  void hedgeMirrorGroupsOnHost(std::size_t host);

  // -- Multi-tenant QoS (qos::QosManager; see DESIGN.md §2.8). -------------

  /// Attach a per-application QoS manager: every first attempt of a write
  /// chunk then asks the manager for admission (token-bucket throttling by
  /// deferred issue; re-issues after a timeout/failover are never charged
  /// again).  Null detaches.  The manager must outlive all transfers.
  void setQosManager(qos::QosManager* qos) { qos_ = qos; }
  qos::QosManager* qosManager() const { return qos_; }

 private:
  /// Records named by generation-stamped handles (slot | generation << 32).
  /// Callbacks capture `this` plus a handle, 16 trivially copyable bytes
  /// that std::function keeps inline, and every use checks that the handle
  /// still names its slot's tenant.  `Record` carries `id` (the live
  /// handle, 0 while the slot is free) and `generation` (bumped on every
  /// reuse of the slot); `Handle` wraps the handle's `value`.
  template <typename Record, typename Handle>
  struct HandleTable {
    std::vector<Record> records;
    std::vector<std::uint32_t> freeSlots;

    /// A new handle; the record keeps its previous tenant's fields.
    Handle allocate() {
      if (freeSlots.empty()) {
        freeSlots.push_back(static_cast<std::uint32_t>(records.size()));
        records.emplace_back();
      }
      const auto slot = freeSlots.back();
      freeSlots.pop_back();
      auto& record = records[slot];
      record.id = slot | std::uint64_t{++record.generation} << 32;
      return Handle{record.id};
    }
    /// The live record `handle` names, or nullptr for a stale handle.  The
    /// pointer is invalidated by the next allocate().
    Record* find(Handle handle) {
      const auto slot = static_cast<std::uint32_t>(handle.value);
      if (handle.value == 0 || slot >= records.size() || records[slot].id != handle.value) {
        return nullptr;
      }
      return &records[slot];
    }
    void release(Handle handle) {
      const auto slot = static_cast<std::uint32_t>(handle.value);
      records[slot].id = 0;
      freeSlots.push_back(slot);
    }
  };

  /// Bookkeeping of one writeAsync/readAsync call: the operation completes
  /// when every chunk resolved (successfully or by abort).  Transfers live
  /// in a slot table (transfers_) and are named by a TransferId.
  struct TransferState {
    std::uint64_t id = 0;          ///< the live handle; 0 while the slot is free
    std::uint32_t generation = 0;  ///< bumped on every reuse of the slot
    std::size_t node = 0;
    std::size_t handleValue = 0;
    bool isWrite = false;
    double queueWeight = 0.0;
    std::size_t pendingChunks = 0;
    std::function<void(util::Seconds)> done;
  };

  /// Handle of a table-owned transfer; a plain chunk's completion captures
  /// it, so it allocates nothing.
  struct TransferId {
    std::uint64_t value = 0;
  };

  /// The live transfer `id` names (ContractError for a stale handle).  The
  /// reference is invalidated by the next transfer allocation, which a
  /// chunk's completion may reach through the transfer's `done`.
  TransferState& transferAt(TransferId id);

  void transferAsync(std::size_t node, FileHandle handle, util::Bytes offset,
                     util::Bytes length, double queueWeight, bool isWrite,
                     std::function<void(util::Seconds)> done);

  /// Issue one chunk flow.  `failedAt` < 0 marks a first attempt; >= 0 the
  /// virtual time this chunk's failure was detected (re-issues).  With a
  /// QosManager attached, first-attempt write chunks pass through token
  /// admission and may start later (deferred issue); re-issues carry bytes
  /// already paid for and bypass it.
  void issueChunk(TransferId transfer, std::size_t stripeSlot,
                  util::Bytes bytes, util::Seconds failedAt);
  /// The post-admission half of issueChunk (also the resume target of a
  /// deferred chunk, whose tokens were spent at the wake).
  void issueChunkAdmitted(TransferId transfer, std::size_t stripeSlot, util::Bytes bytes,
                          util::Seconds failedAt);
  /// Move the chunk's slot to a surviving target (sampled from rng_).
  /// `rewrite` charges the chunk's bytes to the rewritten counter.
  void failOverChunk(TransferId transfer, std::size_t stripeSlot,
                     util::Bytes bytes, util::Seconds failedAt, bool rewrite);
  /// Mark one chunk resolved.  The last one fires the transfer's done and
  /// only then frees its slot.
  void finishChunk(TransferId transfer);

  /// Control record of one in-flight chunk that needs more than a
  /// completion: a hedged write (the original leg plus at most one live
  /// hedge leg; first to land wins, loser cancelled), a chunk under the
  /// client watchdog (fault mode != kNone), or a chunk waiting out a retry
  /// backoff.  Records live in a slot table (controls_) and are named by a
  /// ControlId; plain chunks get none.
  struct ChunkControl {
    std::uint64_t id = 0;          ///< the live handle; 0 while the slot is free
    std::uint32_t generation = 0;  ///< bumped on every reuse of the slot
    TransferId transfer;
    std::size_t stripeSlot = 0;
    util::Bytes bytes = 0;
    std::size_t target = 0;       ///< target of the original leg
    util::Seconds failedAt = -1.0;
    sim::FlowId primaryFlow{};
    bool hedged = false;          ///< a member of the hedge peer set
    sim::FlowId hedgeFlow{};      ///< value 0 = no live hedge leg
    std::size_t hedgeTarget = 0;
    int hedges = 0;               ///< hedge legs issued so far
    int attempt = 0;              ///< retry backoff wait number
    std::vector<std::size_t> tried;  ///< targets given a leg; keeps its capacity
  };

  /// Handle of a control record; leg completions and timers capture it.  A
  /// record is freed when its chunk resolves or is dropped, so a timer
  /// still pending then holds a stale handle and does nothing.
  struct ControlId {
    std::uint64_t value = 0;
  };

  /// A record pointer (controls_.find) is invalidated by the next
  /// allocateControl, which startFlow, cancelFlow and finishChunk may
  /// reach: copy out what is needed before calling them.
  ControlId allocateControl(TransferId transfer, std::size_t stripeSlot, util::Bytes bytes,
                            std::size_t target, util::Seconds failedAt);
  void freeControl(ControlId id);

  /// A watched or hedged chunk's original leg landed.
  void primaryLegDone(ControlId control, const sim::FlowStats& stats);
  /// Client I/O timeout: re-armed while the flow runs; on an offline target
  /// it cancels the flow and enters the retry/failover ladder.
  void armWatchdog(ControlId control);
  void watchdogFired(ControlId control);
  /// Exponential-backoff wait number `attempt` of the record's retry
  /// ladder; retries the original target if it recovered, else escalates
  /// and finally fails over.
  void armRetry(ControlId control);
  void retryFired(ControlId control);

  /// Periodic per-chunk lag check (HedgePolicy::deadline cadence).
  void armHedge(ControlId control);
  void hedgeCheck(ControlId control);
  /// Deterministic alternate-target choice: prefers the original target's
  /// host (unless quarantined), then other non-quarantined hosts, then any
  /// online target; within a class lowest (used, index).  Zero randomness.
  bool pickHedgeTarget(const ChunkControl& control, std::size_t& out) const;
  void issueHedge(ControlId control, std::size_t alt);
  /// First leg landed: cancel the loser, re-home the slot on a hedge win,
  /// resolve the chunk.
  void resolveHedged(ControlId control, bool hedgeWon, util::MiBps legRate);
  /// The good-secondary switchover (factored from onMirrorTargetOffline so
  /// quarantine mitigation can reuse it): promote the secondary, re-send the
  /// untransferred remainder of in-flight chunks, chain a resync if possible.
  void switchMirrorPrimary(std::size_t group);

  /// One in-flight chunk of a mirrored file: a primary flow plus (for
  /// consistent writes) a replica flow; the chunk acks when both landed.
  struct MirrorChunk {
    TransferId transfer;
    std::size_t stripeSlot = 0;
    util::Bytes bytes = 0;
    std::size_t group = 0;
    sim::FlowId primaryFlow{};
    sim::FlowId replicaFlow{};
    std::size_t remainingFlows = 0;
    util::Seconds failedAt = -1.0;
  };

  void issueMirroredChunk(TransferId transfer, std::size_t stripeSlot, util::Bytes bytes,
                          std::size_t group, util::Seconds failedAt);
  void mirrorFlowDone(const std::shared_ptr<MirrorChunk>& chunk, bool primarySide);
  void retireMirrorChunk(const std::shared_ptr<MirrorChunk>& chunk);
  void resolveMirrorChunk(const std::shared_ptr<MirrorChunk>& chunk);
  /// Registry switchover signal handlers (mgmtd target-state listener).
  void onMirrorTargetOffline(std::size_t target);
  void onMirrorTargetOnline(std::size_t target);
  /// Start a resync round if the group needs one and both members are up.
  void maybeStartResync(std::size_t group);
  void startResyncRound(std::size_t group);
  void cancelResync(std::size_t group);

  Deployment& deployment_;
  util::Rng rng_;
  std::unique_ptr<TargetChooser> chooser_;
  std::map<std::string, StripeSettings> directories_;
  std::vector<FileInfo> files_;
  ClientFaultStats faultStats_;
  /// (file handle, stripe slot) -> substitute target after a failover.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> substitutes_;
  MirrorStats mirrorStats_;
  HedgeStats hedgeStats_;
  /// The control records; the live hedged ones are the lag median's peers.
  HandleTable<ChunkControl, ControlId> controls_;
  std::size_t hedgedLive_ = 0;
  /// hedgeCheck's peer rates (scratch, reused across checks).
  std::vector<double> hedgePeers_;
  /// EWMA of completed winning legs' mean rates: the lag reference when the
  /// in-flight peer set is itself sick (e.g. only the chunks behind a
  /// stuttering link remain, so their median cannot expose them).
  util::MiBps hedgeRefRate_ = 0.0;
  /// In-flight mirrored chunks per group (index == group id).
  std::vector<std::vector<std::shared_ptr<MirrorChunk>>> inflightMirror_;
  /// Active background resync flow per group (id 0 == none).
  std::vector<sim::FlowId> resync_;
  /// The transfers; a slot is freed only after its transfer's done has run.
  HandleTable<TransferState, TransferId> transfers_;
  /// Per-application write admission (null = unmanaged; see DESIGN.md §2.8).
  qos::QosManager* qos_ = nullptr;
};

}  // namespace beesim::beegfs
