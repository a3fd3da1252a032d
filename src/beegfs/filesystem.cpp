#include "beegfs/filesystem.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "qos/manager.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace beesim::beegfs {

FileSystem::FileSystem(Deployment& deployment, util::Rng chooserRng)
    : deployment_(deployment),
      rng_(chooserRng),
      chooser_(makeChooser(deployment.params(), deployment.cluster())) {
  directories_["/"] = deployment.params().defaultStripe;
  // A freshly-mounted client observes the round-robin pointer wherever the
  // production system's create history left it (see params.hpp).
  if (auto* rr = dynamic_cast<RoundRobinChooser*>(chooser_.get())) {
    rr->randomizePhase(rng_, deployment.params().rrPointerPhaseStride);
  }
  if (const std::size_t groups = deployment.mgmt().mirrorGroupCount(); groups > 0) {
    inflightMirror_.resize(groups);
    resync_.assign(groups, sim::FlowId{});
    // Mirror failover is mgmtd-driven: the registry flip *is* the
    // switchover signal, so mirrored chunks need no client watchdog.
    deployment.mgmt().addTargetStateListener([this](std::size_t target, bool online) {
      if (online) {
        onMirrorTargetOnline(target);
      } else {
        onMirrorTargetOffline(target);
      }
    });
  }
}

void FileSystem::mkdir(const std::string& path, const StripeSettings& settings) {
  BEESIM_ASSERT(!path.empty() && path.front() == '/', "directory paths must be absolute");
  BEESIM_ASSERT(settings.stripeCount >= 1, "stripe count must be >= 1");
  BEESIM_ASSERT(settings.chunkSize > 0, "chunk size must be > 0");
  directories_[path] = settings;
}

StripeSettings FileSystem::settingsFor(const std::string& path) const {
  // Deepest directory whose path is a prefix (on '/' boundaries) wins.
  StripeSettings best = deployment_.params().defaultStripe;
  std::size_t bestLen = 0;
  for (const auto& [dir, settings] : directories_) {
    const bool isPrefix =
        dir == "/" ? true
                   : util::startsWith(path, dir) &&
                         (path.size() == dir.size() || path[dir.size()] == '/');
    if (isPrefix && dir.size() >= bestLen) {
      best = settings;
      bestLen = dir.size();
    }
  }
  return best;
}

FileHandle FileSystem::create(const std::string& path) {
  BEESIM_ASSERT(!path.empty() && path.front() == '/', "file paths must be absolute");
  const auto settings = settingsFor(path);
  const auto& cluster = deployment_.cluster();

  if (settings.mirror) {
    const auto& mgmt = deployment_.mgmt();
    if (mgmt.mirrorGroupCount() == 0) {
      throw util::ConfigError("mirrored striping requires registered mirror groups");
    }
    // Stripe over buddy-mirror groups: map the chooser's picks onto distinct
    // usable groups (consistent copy reachable), then anchor each stripe
    // slot at the group's *current* primary.
    const auto usable = [&](std::size_t gid) {
      const auto& group = mgmt.mirrorGroup(gid);
      return group.state != MirrorState::kBad && mgmt.target(group.primary).online;
    };
    std::vector<std::size_t> usableGroups;
    for (std::size_t gid = 0; gid < mgmt.mirrorGroupCount(); ++gid) {
      if (usable(gid)) usableGroups.push_back(gid);
    }
    if (usableGroups.empty()) throw util::ConfigError("no usable mirror groups");
    const std::size_t count =
        std::min<std::size_t>(settings.stripeCount, usableGroups.size());
    // Each usable group's primary is online, so the online filter leaves at
    // least `count` eligible targets for the chooser.
    const auto picks = chooser_->choose(
        std::min<std::size_t>(count, cluster.targetCount()), cluster, rng_,
        [&](std::size_t t) { return mgmt.target(t).online; });
    std::vector<std::size_t> groups;
    for (const auto t : picks) {
      const auto gid = mgmt.mirrorGroupOf(t);
      if (gid && usable(*gid) &&
          std::find(groups.begin(), groups.end(), *gid) == groups.end()) {
        groups.push_back(*gid);
      }
    }
    // Fill up with random usable groups the picks did not cover (same
    // repair idiom as the offline-target path below).
    std::vector<std::size_t> candidates;
    for (const auto gid : usableGroups) {
      if (std::find(groups.begin(), groups.end(), gid) == groups.end()) {
        candidates.push_back(gid);
      }
    }
    while (groups.size() < count && !candidates.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng_.uniformInt(0, static_cast<std::int64_t>(candidates.size()) - 1));
      groups.push_back(candidates[pick]);
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    std::vector<std::size_t> targets;
    targets.reserve(groups.size());
    for (const auto gid : groups) targets.push_back(mgmt.mirrorGroup(gid).primary);
    files_.push_back(FileInfo{path, StripePattern(std::move(targets), settings.chunkSize),
                              0, /*mirrored=*/true});
    return FileHandle{files_.size() - 1};
  }

  const auto online = deployment_.mgmt().onlineTargets();
  if (online.empty()) throw util::ConfigError("no online storage targets");
  const std::size_t count =
      std::min<std::size_t>(settings.stripeCount, online.size());

  // The registry state is pushed into the chooser: a real mgmtd only hands
  // out online targets, so the heuristics themselves skip dead ones (the
  // count is already clamped to the online population above).
  const auto isOnline = [&](std::size_t t) { return deployment_.mgmt().target(t).online; };
  std::vector<std::size_t> targets = chooser_->choose(
      std::min<std::size_t>(count, cluster.targetCount()), cluster, rng_, isOnline);

  // Safety net (now expected to be a no-op): replace any offline picks with
  // random online targets not already used.  The replacements are sampled
  // from rng_: a flat ascending fill would bias every repaired stripe toward
  // the low-numbered targets of server 0.
  if (!std::all_of(targets.begin(), targets.end(), isOnline)) {
    std::vector<std::size_t> repaired;
    for (const auto t : targets) {
      if (isOnline(t)) repaired.push_back(t);
    }
    std::vector<std::size_t> candidates;
    for (const auto t : online) {
      if (std::find(repaired.begin(), repaired.end(), t) == repaired.end()) {
        candidates.push_back(t);
      }
    }
    while (repaired.size() < count && !candidates.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng_.uniformInt(0, static_cast<std::int64_t>(candidates.size()) - 1));
      repaired.push_back(candidates[pick]);
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    targets = std::move(repaired);
  }

  files_.push_back(FileInfo{path, StripePattern(std::move(targets), settings.chunkSize), 0});
  return FileHandle{files_.size() - 1};
}

FileHandle FileSystem::createPinned(const std::string& path, std::vector<std::size_t> targets,
                                    util::Bytes chunkSize) {
  BEESIM_ASSERT(!path.empty() && path.front() == '/', "file paths must be absolute");
  for (const auto t : targets) {
    BEESIM_ASSERT(t < deployment_.cluster().targetCount(), "pinned target out of range");
  }
  const bool mirrored =
      settingsFor(path).mirror && deployment_.mgmt().mirrorGroupCount() > 0;
  files_.push_back(
      FileInfo{path, StripePattern(std::move(targets), chunkSize), 0, mirrored});
  return FileHandle{files_.size() - 1};
}

const FileInfo& FileSystem::info(FileHandle handle) const {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  return files_[handle.value];
}

void FileSystem::enableWeightedChooser() {
  if (dynamic_cast<WeightedChooser*>(chooser_.get()) != nullptr) return;
  chooser_ = std::make_unique<WeightedChooser>(std::move(chooser_), deployment_.mgmt());
}

std::size_t FileSystem::effectiveTarget(FileHandle handle, std::size_t slot) const {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  const auto& file = files_[handle.value];
  BEESIM_ASSERT(slot < file.pattern.targets().size(), "stripe slot out of range");
  if (const auto sub = substitutes_.find({handle.value, slot}); sub != substitutes_.end()) {
    return sub->second;
  }
  return file.pattern.targets()[slot];
}

util::Bytes FileSystem::slotBytes(FileHandle handle, std::size_t slot) const {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  const auto& file = files_[handle.value];
  BEESIM_ASSERT(slot < file.pattern.targets().size(), "stripe slot out of range");
  return file.pattern.bytesOnSlot(0, file.size, slot);
}

sim::FlowId FileSystem::migrateSlot(FileHandle handle, std::size_t slot,
                                    std::size_t newTarget, double queueWeight,
                                    double rateCap,
                                    std::function<void(const sim::FlowStats&)> done) {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  const auto& file = files_[handle.value];
  BEESIM_ASSERT(slot < file.pattern.targets().size(), "stripe slot out of range");
  BEESIM_ASSERT(newTarget < deployment_.cluster().targetCount(),
                "migration target out of range");
  BEESIM_ASSERT(!file.mirrored, "mirrored slots move via their buddy groups");
  const std::size_t oldTarget = effectiveTarget(handle, slot);
  BEESIM_ASSERT(oldTarget != newTarget, "migration to the slot's current target");
  const util::Bytes bytes = slotBytes(handle, slot);
  BEESIM_ASSERT(bytes > 0, "an empty slot needs no migration");
  // The slot is re-homed immediately -- new chunks and re-issues address the
  // destination -- while the resident bytes stream over in the background.
  // Bytes on the old target leak until an offline cleanup, like rewrites.
  substitutes_[{handle.value, slot}] = newTarget;
  deployment_.mgmt().recordUsage(newTarget, bytes);
  return deployment_.fluid().startFlow(sim::FlowSpec{
      .path = deployment_.replicaPath(oldTarget, newTarget),
      .bytes = bytes,
      .queueWeight = queueWeight,
      .rateCap = rateCap,
      .onComplete = std::move(done),
  });
}

std::map<std::size_t, std::size_t> FileSystem::degradedSlots(FileHandle handle) const {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  std::map<std::size_t, std::size_t> slots;
  for (const auto& [key, target] : substitutes_) {
    if (key.first == handle.value) slots[key.second] = target;
  }
  return slots;
}

void FileSystem::transferAsync(std::size_t node, FileHandle handle, util::Bytes offset,
                               util::Bytes length, double queueWeight, bool isWrite,
                               std::function<void(util::Seconds)> done) {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  BEESIM_ASSERT(queueWeight > 0.0, "queue weight must be positive");
  auto& file = files_[handle.value];

  if (length == 0) {
    if (done) {
      auto& fluid = deployment_.fluid();
      fluid.engine().scheduleAfter(0.0, [done, &fluid] { done(fluid.now()); });
    }
    return;
  }

  if (isWrite) {
    file.size = std::max(file.size, offset + length);
  }

  // One chunk (fluid flow) per touched target; the operation completes when
  // every chunk resolved (possibly after retries/failovers).
  const std::size_t flowsToStart = file.pattern.slotsTouched(offset, length);
  BEESIM_ASSERT(flowsToStart > 0, "transfer touched no target");

  const auto transfer = transfers_.allocate();
  auto& state = transferAt(transfer);
  state.node = node;
  state.handleValue = handle.value;
  state.isWrite = isWrite;
  state.queueWeight = queueWeight;
  state.pendingChunks = flowsToStart;
  state.done = std::move(done);
  // The split is taken slot by slot, not kept in a buffer: the last chunk
  // can resolve inside issueChunk and its done start the next transfer,
  // which would overwrite a shared buffer and may grow files_.  So the loop
  // re-reads files_ and ends with the last issue.
  std::size_t issued = 0;
  for (std::size_t slot = 0; issued < flowsToStart; ++slot) {
    const util::Bytes bytes = files_[handle.value].pattern.bytesOnSlot(offset, length, slot);
    if (bytes == 0) continue;
    ++issued;
    issueChunk(transfer, slot, bytes, /*failedAt=*/-1.0);
  }
}

void FileSystem::issueChunk(TransferId transfer, std::size_t stripeSlot, util::Bytes bytes,
                            util::Seconds failedAt) {
  // QoS admission gates the write path only, and only first attempts: a
  // re-issue after a timeout/failover carries bytes whose tokens were spent
  // at the original admission, so the retry ladder can never double-spend.
  // The resume closure becomes a std::function only if the chunk queues.
  if (qos_ != nullptr && failedAt < 0.0 && transferAt(transfer).isWrite) {
    const bool admitted = qos_->admitChunk(
        transferAt(transfer).node, bytes, [this, transfer, stripeSlot, bytes] {
          issueChunkAdmitted(transfer, stripeSlot, bytes, /*failedAt=*/-1.0);
        });
    if (!admitted) return;  // deferred; the manager resumes it
  }
  issueChunkAdmitted(transfer, stripeSlot, bytes, failedAt);
}

void FileSystem::issueChunkAdmitted(TransferId transfer, std::size_t stripeSlot,
                                    util::Bytes bytes, util::Seconds failedAt) {
  const auto& policy = deployment_.params().faults;
  auto& fluid = deployment_.fluid();

  if (faultStats_.aborted) {
    // The job already gave up; resolve the chunk without doing I/O.
    if (failedAt >= 0.0) faultStats_.degradedTime += fluid.now() - failedAt;
    finishChunk(transfer);
    return;
  }

  const auto& state = transferAt(transfer);
  const std::size_t node = state.node;
  const bool isWrite = state.isWrite;
  const double queueWeight = state.queueWeight;
  const auto& file = files_[state.handleValue];
  std::size_t target = file.pattern.targets()[stripeSlot];
  if (const auto sub = substitutes_.find({state.handleValue, stripeSlot});
      sub != substitutes_.end()) {
    target = sub->second;
  }

  if (file.mirrored) {
    if (const auto gid = deployment_.mgmt().mirrorGroupOf(target)) {
      issueMirroredChunk(transfer, stripeSlot, bytes, *gid, failedAt);
      return;
    }
    // A substitute outside any group (odd host counts): plain chunk below.
  }

  const bool watched = policy.mode != ClientFaultPolicy::Mode::kNone;
  if (watched && !deployment_.mgmt().target(target).online) {
    // The registry already reports the target dead: don't wait for a
    // timeout.  Strict mode aborts; degraded mode reroutes immediately.
    if (policy.mode == ClientFaultPolicy::Mode::kStrict) {
      faultStats_.aborted = true;
      if (failedAt >= 0.0) faultStats_.degradedTime += fluid.now() - failedAt;
      finishChunk(transfer);
      return;
    }
    failOverChunk(transfer, stripeSlot, bytes, failedAt < 0.0 ? fluid.now() : failedAt,
                  /*rewrite=*/false);
    return;
  }

  // Rewrites charge usage again: the blocks written before the failure are
  // not reclaimed by the model (they leak until an offline cleanup).
  if (isWrite) deployment_.mgmt().recordUsage(target, bytes);

  const bool hedged = deployment_.params().hedge.enabled && isWrite;
  if (hedged || watched) {
    // A hedged chunk resolves through its record so a later hedge leg and
    // the original race cleanly (first wins); a watched one keeps what its
    // watchdog and retry ladder need.
    const auto control = allocateControl(transfer, stripeSlot, bytes, target, failedAt);
    if (hedged) {
      auto& record = *controls_.find(control);
      record.hedged = true;
      record.tried.push_back(target);
      ++hedgedLive_;
    }
    const auto flow = fluid.startFlow(sim::FlowSpec{
        .path = deployment_.writePath(node, target),
        .bytes = bytes,
        .queueWeight = queueWeight,
        .rateCap = 0.0,
        .onComplete = [this, control](const sim::FlowStats& s) { primaryLegDone(control, s); },
    });
    controls_.find(control)->primaryFlow = flow;
    if (watched) armWatchdog(control);
    if (hedged) armHedge(control);
    return;
  }

  // A first attempt's closure is `this` plus the handle, which
  // std::function stores inline; only a re-issue also carries failedAt.
  std::function<void(const sim::FlowStats&)> onComplete;
  if (failedAt < 0.0) {
    onComplete = [this, transfer](const sim::FlowStats&) { finishChunk(transfer); };
  } else {
    onComplete = [this, transfer, failedAt](const sim::FlowStats& stats) {
      faultStats_.degradedTime += stats.endTime - failedAt;
      finishChunk(transfer);
    };
  }
  fluid.startFlow(sim::FlowSpec{
      .path = deployment_.writePath(node, target),
      .bytes = bytes,
      .queueWeight = queueWeight,
      .rateCap = 0.0,
      .onComplete = std::move(onComplete),
  });
}

void FileSystem::primaryLegDone(ControlId control, const sim::FlowStats& stats) {
  const ChunkControl* record = controls_.find(control);
  if (record == nullptr) return;  // a hedge leg already resolved the chunk
  if (record->hedged) {
    resolveHedged(control, /*hedgeWon=*/false, stats.meanRate());
    return;
  }
  const TransferId transfer = record->transfer;
  const util::Seconds failedAt = record->failedAt;
  freeControl(control);  // the pending watchdog turns into a no-op
  if (failedAt >= 0.0) faultStats_.degradedTime += stats.endTime - failedAt;
  finishChunk(transfer);
}

void FileSystem::TimerLane::push(const Entry& entry) {
  if (size == ring.size()) {
    // Unroll into a buffer twice the size; the ring keeps it from then on.
    std::vector<Entry> grown(std::max<std::size_t>(16, 2 * ring.size()));
    for (std::size_t i = 0; i < size; ++i) grown[i] = at(i);
    ring.swap(grown);
    head = 0;
  }
  ++size;
  at(size - 1) = entry;
}

void FileSystem::armTimer(TimerLane& lane, util::Seconds delay, ControlId control) {
  const sim::Ticket ticket = deployment_.fluid().engine().reserveAfter(delay);
  BEESIM_ASSERT(lane.size == 0 || lane.at(lane.size - 1).ticket < ticket,
                "a timer lane's tickets must leave in dispatch order");
  lane.push({ticket, control});
  if (!lane.scheduled) scheduleLane(lane);
}

void FileSystem::scheduleLane(TimerLane& lane) {
  while (lane.size > 0 && controls_.find(lane.at(0).control) == nullptr) lane.pop();
  lane.scheduled = lane.size > 0;
  if (lane.scheduled) {
    deployment_.fluid().engine().schedule(lane.at(0).ticket, [this, &lane] { laneFired(lane); });
  }
}

void FileSystem::laneFired(TimerLane& lane) {
  const ControlId control = lane.at(0).control;
  lane.pop();
  // `scheduled` stays set, so a re-arm from the action only queues.
  (this->*lane.fired)(control);
  scheduleLane(lane);
}

void FileSystem::armWatchdog(ControlId control) {
  armTimer(watchdogs_, deployment_.params().faults.ioTimeout, control);
}

void FileSystem::watchdogFired(ControlId control) {
  auto& fluid = deployment_.fluid();
  const ChunkControl* record = controls_.find(control);
  // The chunk finished meanwhile (or its record moved on to a new tenant).
  if (record == nullptr || !fluid.flowActive(record->primaryFlow)) return;
  if (deployment_.mgmt().target(record->target).online) {
    // Still making (possibly slow) progress on a live target.
    armWatchdog(control);
    return;
  }
  // The chunk sat unfinished for a full ioTimeout and its target is
  // registered offline: the client declares it failed.  The retry ladder
  // owns the chunk from here; any hedge leg is torn down.
  const TransferId transfer = record->transfer;
  const std::size_t stripeSlot = record->stripeSlot;
  const util::Bytes bytes = record->bytes;
  const std::size_t target = record->target;
  const sim::FlowId primaryFlow = record->primaryFlow;
  const sim::FlowId hedgeFlow = record->hedgeFlow;
  const util::Seconds detectedAt = record->failedAt >= 0.0 ? record->failedAt : fluid.now();
  freeControl(control);  // pending hedge timers become no-ops
  fluid.cancelFlow(primaryFlow);
  if (hedgeFlow.value != 0 && fluid.flowActive(hedgeFlow)) fluid.cancelFlow(hedgeFlow);
  ++faultStats_.timeouts;
  if (deployment_.params().faults.mode == ClientFaultPolicy::Mode::kStrict) {
    faultStats_.aborted = true;
    faultStats_.degradedTime += fluid.now() - detectedAt;
    finishChunk(transfer);
    return;
  }
  armRetry(allocateControl(transfer, stripeSlot, bytes, target, detectedAt));
}

void FileSystem::armRetry(ControlId control) {
  const auto& policy = deployment_.params().faults;
  const util::Seconds wait =
      policy.backoffBase *
      std::pow(policy.backoffFactor, static_cast<double>(controls_.find(control)->attempt));
  deployment_.fluid().engine().scheduleAfter(wait, [this, control] { retryFired(control); });
}

void FileSystem::retryFired(ControlId control) {
  ChunkControl* record = controls_.find(control);
  BEESIM_ASSERT(record != nullptr, "a retry record is freed only by its own timer");
  const TransferId transfer = record->transfer;
  const std::size_t stripeSlot = record->stripeSlot;
  const util::Bytes bytes = record->bytes;
  const util::Seconds failedAt = record->failedAt;
  if (faultStats_.aborted) {
    freeControl(control);
    faultStats_.degradedTime += deployment_.fluid().now() - failedAt;
    finishChunk(transfer);
    return;
  }
  if (deployment_.mgmt().target(record->target).online) {
    // The target came back: re-send the whole chunk to it (nothing
    // written during the failure window is trusted).
    freeControl(control);
    ++faultStats_.retries;
    faultStats_.bytesRewritten += bytes;
    issueChunk(transfer, stripeSlot, bytes, failedAt);
    return;
  }
  if (record->attempt + 1 < deployment_.params().faults.maxRetries) {
    ++record->attempt;
    armRetry(control);
    return;
  }
  freeControl(control);
  failOverChunk(transfer, stripeSlot, bytes, failedAt, /*rewrite=*/true);
}

void FileSystem::failOverChunk(TransferId transfer, std::size_t stripeSlot, util::Bytes bytes,
                               util::Seconds failedAt, bool rewrite) {
  const auto online = deployment_.mgmt().onlineTargets();
  if (online.empty()) {
    // Nowhere left to put the chunk: give up like strict mode.
    faultStats_.aborted = true;
    if (failedAt >= 0.0) faultStats_.degradedTime += deployment_.fluid().now() - failedAt;
    finishChunk(transfer);
    return;
  }
  const auto pick = online[static_cast<std::size_t>(
      rng_.uniformInt(0, static_cast<std::int64_t>(online.size()) - 1))];
  substitutes_[{transferAt(transfer).handleValue, stripeSlot}] = pick;
  ++faultStats_.failovers;
  if (rewrite) faultStats_.bytesRewritten += bytes;
  issueChunk(transfer, stripeSlot, bytes, failedAt);
}

FileSystem::TransferState& FileSystem::transferAt(TransferId id) {
  TransferState* state = transfers_.find(id);
  BEESIM_ASSERT(state != nullptr, "stale transfer handle");
  return *state;
}

void FileSystem::finishChunk(TransferId transfer) {
  auto& state = transferAt(transfer);
  BEESIM_ASSERT(state.pendingChunks > 0, "transfer completion underflow");
  if (--state.pendingChunks > 0) return;
  // done may start the next transfer, which can grow the table: run it from
  // a local, and free the slot only afterwards.
  const auto done = std::move(state.done);
  state.done = nullptr;
  if (done) done(deployment_.fluid().now());
  transfers_.release(transfer);
}

FileSystem::ControlId FileSystem::allocateControl(TransferId transfer, std::size_t stripeSlot,
                                                  util::Bytes bytes, std::size_t target,
                                                  util::Seconds failedAt) {
  const ControlId control = controls_.allocate();
  auto& record = *controls_.find(control);
  record.transfer = transfer;
  record.stripeSlot = stripeSlot;
  record.bytes = bytes;
  record.target = target;
  record.failedAt = failedAt;
  record.primaryFlow = sim::FlowId{};
  record.hedged = false;
  record.hedgeFlow = sim::FlowId{};
  record.hedgeTarget = 0;
  record.hedges = 0;
  record.attempt = 0;
  record.tried.clear();
  return control;
}

void FileSystem::freeControl(ControlId id) {
  const ChunkControl* record = controls_.find(id);
  BEESIM_ASSERT(record != nullptr, "stale control handle");
  if (record->hedged) --hedgedLive_;
  controls_.release(id);
}

// -- Hedged writes. ----------------------------------------------------------

void FileSystem::armHedge(ControlId control) {
  armTimer(hedgeChecks_, deployment_.params().hedge.deadline, control);
}

void FileSystem::hedgeCheck(ControlId control) {
  const ChunkControl* record = controls_.find(control);
  if (record == nullptr) return;  // resolved or dropped: a stale timer
  auto& fluid = deployment_.fluid();
  const auto& policy = deployment_.params().hedge;

  // A leg's rate, 0 for none or a finished one.
  const auto legRate = [&fluid](sim::FlowId flow) {
    return flow.value != 0 && fluid.flowActive(flow) ? fluid.flowRate(flow) : 0.0;
  };
  const double best = std::max(legRate(record->primaryFlow), legRate(record->hedgeFlow));

  // Peer-relative lag: compare against the median best-leg rate of the
  // other hedged in-flight chunks.  Like the HealthMonitor's score this is
  // relative on purpose -- a cluster-wide slowdown lags nobody.  A chunk
  // moving zero bytes is lagging with or without peers (dead-but-online).
  bool lagging = best <= 0.0;
  if (!lagging) {
    hedgePeers_.clear();
    for (const auto& other : controls_.records) {
      if (other.id == 0 || !other.hedged || other.id == control.value) continue;
      hedgePeers_.push_back(std::max(legRate(other.primaryFlow), legRate(other.hedgeFlow)));
    }
    if (!hedgePeers_.empty()) {
      // Sorted, so the table's slot order cannot move the median.
      std::sort(hedgePeers_.begin(), hedgePeers_.end());
      const double median = hedgePeers_[(hedgePeers_.size() - 1) / 2];  // lower median
      lagging = median > 0.0 && best < policy.lagRatio * median;
    }
    // The in-flight peer set can be *uniformly* sick: once the healthy
    // chunks complete, only the ones behind a stuttering link remain and
    // their median cannot expose them.  The EWMA of completed winning legs'
    // rates keeps a memory of what healthy service looked like.
    if (!lagging && hedgeRefRate_ > 0.0) {
      lagging = best < policy.lagRatio * hedgeRefRate_;
    }
  }

  if (!lagging) {
    armHedge(control);
    return;
  }
  if (record->hedges >= policy.maxHedges) return;  // budget spent; stop the timer
  // A lagging live hedge leg is replaced like a dead one: it had a full
  // deadline to establish a rate, and `best` already folds it into the lag
  // verdict (a crawling same-host hedge must not pin the chunk to a host
  // whose link degraded after the leg was picked).  issueHedge cancels it.
  std::size_t alt = 0;
  if (!pickHedgeTarget(*record, alt)) {
    armHedge(control);  // nowhere to go yet; a repair may open a candidate
    return;
  }
  issueHedge(control, alt);
  armHedge(control);
}

bool FileSystem::pickHedgeTarget(const ChunkControl& control, std::size_t& out) const {
  const auto& mgmt = deployment_.mgmt();
  const std::size_t primaryHost = mgmt.target(control.target).host;
  // Class 0: the original target's host (keeps the allocation's per-host
  // balance) unless that host is quarantined; class 1: any other
  // non-quarantined host; class 2: anything online (last resort -- better a
  // shunned target than a stalled job).  Within a class the least-used,
  // lowest-index target wins: deterministic, so campaigns stay
  // jobs-invariant (no rng_ draw on this path).
  int bestClass = 3;
  util::Bytes bestUsed = 0;
  bool found = false;
  for (std::size_t t = 0; t < deployment_.cluster().targetCount(); ++t) {
    const auto& entry = mgmt.target(t);
    if (!entry.online) continue;
    if (std::find(control.tried.begin(), control.tried.end(), t) != control.tried.end()) {
      continue;
    }
    const bool shunned =
        mgmt.hostHealth(entry.host) == HostHealth::kQuarantined;
    int cls = 2;
    if (!shunned) cls = entry.host == primaryHost ? 0 : 1;
    if (!found || cls < bestClass || (cls == bestClass && entry.used < bestUsed)) {
      found = true;
      bestClass = cls;
      bestUsed = entry.used;
      out = t;
    }
  }
  return found;
}

void FileSystem::issueHedge(ControlId control, std::size_t alt) {
  auto& fluid = deployment_.fluid();
  ChunkControl* record = controls_.find(control);
  // A dead previous hedge leg is abandoned before the replacement starts.
  const sim::FlowId previous = record->hedgeFlow;
  record->hedgeTarget = alt;
  record->tried.push_back(alt);
  ++record->hedges;
  const TransferId transfer = record->transfer;
  const util::Bytes bytes = record->bytes;
  if (previous.value != 0 && fluid.flowActive(previous)) fluid.cancelFlow(previous);
  ++hedgeStats_.hedgesIssued;
  hedgeStats_.bytesHedged += bytes;
  // The duplicate send charges usage like a rewrite (the loser's bytes leak
  // until an offline cleanup); it never passes QoS admission again -- the
  // chunk's tokens were spent when it was first admitted.
  deployment_.mgmt().recordUsage(alt, bytes);
  const auto& state = transferAt(transfer);
  const auto flow = fluid.startFlow(sim::FlowSpec{
      .path = deployment_.writePath(state.node, alt),
      .bytes = bytes,
      .queueWeight = state.queueWeight,
      .rateCap = 0.0,
      .onComplete =
          [this, control](const sim::FlowStats& s) {
            resolveHedged(control, /*hedgeWon=*/true, s.meanRate());
          },
  });
  controls_.find(control)->hedgeFlow = flow;
}

void FileSystem::resolveHedged(ControlId control, bool hedgeWon, util::MiBps legRate) {
  const ChunkControl* record = controls_.find(control);
  if (record == nullptr) return;  // the other leg already resolved the chunk
  const TransferId transfer = record->transfer;
  const std::size_t stripeSlot = record->stripeSlot;
  const std::size_t hedgeTarget = record->hedgeTarget;
  const sim::FlowId primaryFlow = record->primaryFlow;
  const sim::FlowId hedgeFlow = record->hedgeFlow;
  const int hedges = record->hedges;
  const util::Seconds failedAt = record->failedAt;
  freeControl(control);  // pending hedge and watchdog timers become no-ops
  auto& fluid = deployment_.fluid();
  // Winning legs feed the lag reference (same alpha as the HealthMonitor's
  // EWMA).  Losing/cancelled legs never complete, so a stalled primary
  // cannot drag the reference down.
  if (legRate > 0.0) {
    hedgeRefRate_ = hedgeRefRate_ > 0.0 ? 0.3 * legRate + 0.7 * hedgeRefRate_ : legRate;
  }
  if (hedgeWon) {
    ++hedgeStats_.hedgeWins;
    if (fluid.flowActive(primaryFlow)) fluid.cancelFlow(primaryFlow);
    // Re-home the slot: later segments address the winner directly instead
    // of re-fighting the gray target chunk by chunk.
    substitutes_[{transferAt(transfer).handleValue, stripeSlot}] = hedgeTarget;
  } else {
    if (hedges > 0) ++hedgeStats_.primaryWins;
    if (hedgeFlow.value != 0 && fluid.flowActive(hedgeFlow)) fluid.cancelFlow(hedgeFlow);
  }
  if (failedAt >= 0.0) faultStats_.degradedTime += fluid.now() - failedAt;
  finishChunk(transfer);
}

// -- Buddy mirroring. --------------------------------------------------------

bool FileSystem::resyncActive(std::size_t id) const {
  BEESIM_ASSERT(id < resync_.size(), "unknown mirror group");
  return resync_[id].value != 0;
}

void FileSystem::issueMirroredChunk(TransferId transfer, std::size_t stripeSlot,
                                    util::Bytes bytes, std::size_t group,
                                    util::Seconds failedAt) {
  auto& mgmt = deployment_.mgmt();
  auto& fluid = deployment_.fluid();
  const auto& policy = deployment_.params().faults;
  const auto& entry = mgmt.mirrorGroup(group);

  if (entry.state == MirrorState::kBad || !mgmt.target(entry.primary).online) {
    // No consistent copy reachable through this group: fall back to the
    // plain degraded-stripe ladder (the substitute may land in another
    // live group, which is fine -- it can't loop back into this one while
    // both members are down).
    if (policy.mode == ClientFaultPolicy::Mode::kStrict) {
      faultStats_.aborted = true;
      if (failedAt >= 0.0) faultStats_.degradedTime += fluid.now() - failedAt;
      finishChunk(transfer);
      return;
    }
    failOverChunk(transfer, stripeSlot, bytes, failedAt < 0.0 ? fluid.now() : failedAt,
                  /*rewrite=*/true);
    return;
  }

  // New writes replicate whenever the secondary is reachable -- also while
  // the group needs resync: the primary forwards fresh chunks and only the
  // stale delta (the tracked debt) waits for the background stream, so the
  // debt is bounded by what accrued while the secondary was unreachable.
  const auto& state = transferAt(transfer);
  const std::size_t node = state.node;
  const bool isWrite = state.isWrite;
  const double queueWeight = state.queueWeight;
  const bool replicate = isWrite && mgmt.target(entry.secondary).online;
  auto chunk = std::make_shared<MirrorChunk>();
  chunk->transfer = transfer;
  chunk->stripeSlot = stripeSlot;
  chunk->bytes = bytes;
  chunk->group = group;
  chunk->remainingFlows = replicate ? 2 : 1;
  chunk->failedAt = failedAt;
  if (isWrite) {
    mgmt.recordUsage(entry.primary, bytes);
    // A degraded group keeps accepting writes single-copy; the secondary is
    // owed the chunk on resync.
    if (!replicate) mgmt.addResyncDebt(group, bytes);
  }
  inflightMirror_[group].push_back(chunk);
  chunk->primaryFlow = fluid.startFlow(sim::FlowSpec{
      .path = deployment_.writePath(node, entry.primary),
      .bytes = bytes,
      .queueWeight = queueWeight,
      .rateCap = 0.0,
      .onComplete =
          [this, chunk](const sim::FlowStats&) { mirrorFlowDone(chunk, /*primarySide=*/true); },
  });
  if (replicate) {
    mgmt.recordUsage(entry.secondary, bytes);
    ++mirrorStats_.replicaFlows;
    mirrorStats_.bytesReplicated += bytes;
    chunk->replicaFlow = fluid.startFlow(sim::FlowSpec{
        .path = deployment_.replicaPath(entry.primary, entry.secondary),
        .bytes = bytes,
        .queueWeight = queueWeight,
        .rateCap = 0.0,
        .onComplete =
            [this, chunk](const sim::FlowStats&) { mirrorFlowDone(chunk, /*primarySide=*/false); },
    });
  }
}

void FileSystem::mirrorFlowDone(const std::shared_ptr<MirrorChunk>& chunk, bool primarySide) {
  if (primarySide) {
    chunk->primaryFlow = sim::FlowId{};
  } else {
    chunk->replicaFlow = sim::FlowId{};
  }
  BEESIM_ASSERT(chunk->remainingFlows > 0, "mirror chunk completion underflow");
  if (--chunk->remainingFlows > 0) return;  // the other copy is still landing
  resolveMirrorChunk(chunk);
}

void FileSystem::retireMirrorChunk(const std::shared_ptr<MirrorChunk>& chunk) {
  auto& inflight = inflightMirror_[chunk->group];
  inflight.erase(std::remove(inflight.begin(), inflight.end(), chunk), inflight.end());
}

void FileSystem::resolveMirrorChunk(const std::shared_ptr<MirrorChunk>& chunk) {
  retireMirrorChunk(chunk);
  if (chunk->failedAt >= 0.0) {
    faultStats_.degradedTime += deployment_.fluid().now() - chunk->failedAt;
  }
  finishChunk(chunk->transfer);
}

void FileSystem::onMirrorTargetOffline(std::size_t target) {
  auto& mgmt = deployment_.mgmt();
  const auto gid = mgmt.mirrorGroupOf(target);
  if (!gid) return;
  auto& fluid = deployment_.fluid();
  // Any in-progress resync crosses the dead member; its remaining delta
  // stays owed (debt is only settled on completion).
  cancelResync(*gid);

  const auto& entry = mgmt.mirrorGroup(*gid);
  if (target == mgmt.mirrorGroup(*gid).secondary) {
    // Replica leg gone: writes continue single-copy against the primary.
    // Partial replicas are untrusted, so each cancelled replica flow owes
    // the whole chunk to the resync.
    if (entry.state == MirrorState::kGood) {
      mgmt.setMirrorState(*gid, MirrorState::kNeedsResync);
    }
    const auto chunks = inflightMirror_[*gid];  // snapshot: handlers mutate it
    for (const auto& chunk : chunks) {
      if (chunk->replicaFlow.value != 0 && fluid.flowActive(chunk->replicaFlow)) {
        fluid.cancelFlow(chunk->replicaFlow);
        chunk->replicaFlow = sim::FlowId{};
        mgmt.addResyncDebt(*gid, chunk->bytes);
        BEESIM_ASSERT(chunk->remainingFlows > 0, "mirror chunk completion underflow");
        if (--chunk->remainingFlows == 0) resolveMirrorChunk(chunk);
      }
    }
    return;
  }
  if (target != entry.primary) return;

  if (entry.state == MirrorState::kGood && mgmt.target(entry.secondary).online) {
    switchMirrorPrimary(*gid);
    return;
  }

  // Primary died with no consistent secondary (offline or stale): acked
  // bytes whose only up-to-date copy sat on the dead primary are lost; that
  // is exactly the outstanding resync debt.
  mirrorStats_.bytesLost += entry.resyncDebt;
  mgmt.settleResyncDebt(*gid, entry.resyncDebt);
  mgmt.setMirrorState(*gid, MirrorState::kBad);
  // A stale-but-online survivor is still the best copy left: promote it so
  // the group keeps serving (needs-resync toward the dead member) instead
  // of leaking chunks to out-of-group substitutes.
  const bool survivorOnline = mgmt.target(entry.secondary).online;
  if (survivorOnline) mgmt.reviveMirrorGroup(*gid, entry.secondary);
  const auto& policy = deployment_.params().faults;
  const auto chunks = inflightMirror_[*gid];
  for (const auto& chunk : chunks) {
    if (chunk->primaryFlow.value != 0 && fluid.flowActive(chunk->primaryFlow)) {
      fluid.cancelFlow(chunk->primaryFlow);
    }
    if (chunk->replicaFlow.value != 0 && fluid.flowActive(chunk->replicaFlow)) {
      fluid.cancelFlow(chunk->replicaFlow);
    }
    retireMirrorChunk(chunk);
    const util::Seconds detectedAt = chunk->failedAt >= 0.0 ? chunk->failedAt : fluid.now();
    if (policy.mode == ClientFaultPolicy::Mode::kStrict) {
      faultStats_.aborted = true;
      faultStats_.degradedTime += fluid.now() - detectedAt;
      finishChunk(chunk->transfer);
      continue;
    }
    if (survivorOnline) {
      // Full rewrite: nothing the dead primary received is trusted.
      if (transferAt(chunk->transfer).isWrite) faultStats_.bytesRewritten += chunk->bytes;
      issueMirroredChunk(chunk->transfer, chunk->stripeSlot, chunk->bytes, *gid,
                         detectedAt);
      continue;
    }
    failOverChunk(chunk->transfer, chunk->stripeSlot, chunk->bytes, detectedAt,
                  /*rewrite=*/true);
  }
}

void FileSystem::switchMirrorPrimary(std::size_t group) {
  auto& mgmt = deployment_.mgmt();
  auto& fluid = deployment_.fluid();
  // mgmtd switchover: the secondary holds every acked byte, so promotion
  // loses nothing and nothing is rewritten.  In-flight chunks keep their
  // replica-leg progress: only the untransferred remainder is re-sent to
  // the new primary.
  mgmt.failOverMirrorGroup(group);
  ++mirrorStats_.failovers;
  const std::size_t newPrimary = mgmt.mirrorGroup(group).primary;
  const auto chunks = inflightMirror_[group];  // snapshot: handlers mutate it
  for (const auto& chunk : chunks) {
    if (chunk->primaryFlow.value != 0 && fluid.flowActive(chunk->primaryFlow)) {
      fluid.cancelFlow(chunk->primaryFlow);
      chunk->primaryFlow = sim::FlowId{};
    }
    const auto& state = transferAt(chunk->transfer);
    const std::size_t node = state.node;
    const double queueWeight = state.queueWeight;
    if (!state.isWrite) {
      // Reads simply re-fetch the whole chunk from the surviving copy.
      chunk->remainingFlows = 1;
      chunk->primaryFlow = fluid.startFlow(sim::FlowSpec{
          .path = deployment_.writePath(node, newPrimary),
          .bytes = chunk->bytes,
          .queueWeight = queueWeight,
          .rateCap = 0.0,
          .onComplete = [this, chunk](const sim::FlowStats&) { mirrorFlowDone(chunk, true); },
      });
      continue;
    }
    // The old primary's copy is stale whatever it received; the group
    // owes the whole chunk to it on resync.
    mgmt.addResyncDebt(group, chunk->bytes);
    util::Bytes resend = 0;
    if (chunk->replicaFlow.value != 0 && fluid.flowActive(chunk->replicaFlow)) {
      resend = fluid.cancelFlow(chunk->replicaFlow).value_or(0);
      chunk->replicaFlow = sim::FlowId{};
    }
    chunk->remainingFlows = 1;
    if (resend == 0) {
      // The replica already landed in full on the promoted target.
      resolveMirrorChunk(chunk);
      continue;
    }
    mirrorStats_.bytesResent += resend;
    chunk->primaryFlow = fluid.startFlow(sim::FlowSpec{
        .path = deployment_.writePath(node, newPrimary),
        .bytes = resend,
        .queueWeight = queueWeight,
        .rateCap = 0.0,
        .onComplete = [this, chunk](const sim::FlowStats&) { mirrorFlowDone(chunk, true); },
    });
  }
  // When the demoted member is still online (quarantine switchover, not a
  // crash) the owed delta can start streaming right away.
  maybeStartResync(group);
}

void FileSystem::hedgeMirrorGroupsOnHost(std::size_t host) {
  if (!deployment_.params().hedge.enabled) return;
  auto& mgmt = deployment_.mgmt();
  for (std::size_t gid = 0; gid < mgmt.mirrorGroupCount(); ++gid) {
    const auto& group = mgmt.mirrorGroup(gid);
    if (group.state != MirrorState::kGood) continue;
    if (mgmt.target(group.primary).host != host) continue;
    const auto& secondary = mgmt.target(group.secondary);
    if (!secondary.online) continue;
    if (mgmt.hostHealth(secondary.host) == HostHealth::kQuarantined) continue;
    switchMirrorPrimary(gid);
    ++hedgeStats_.mirrorSwitchovers;
  }
}

void FileSystem::onMirrorTargetOnline(std::size_t target) {
  auto& mgmt = deployment_.mgmt();
  const auto gid = mgmt.mirrorGroupOf(target);
  if (!gid) return;
  const auto& entry = mgmt.mirrorGroup(*gid);
  if (entry.state == MirrorState::kBad) {
    // First member back after a double failure: it becomes the
    // authoritative side and the group re-opens in needs-resync.
    mgmt.reviveMirrorGroup(*gid, target);
  }
  maybeStartResync(*gid);
}

void FileSystem::maybeStartResync(std::size_t group) {
  const auto& mgmt = deployment_.mgmt();
  const auto& entry = mgmt.mirrorGroup(group);
  if (entry.state != MirrorState::kNeedsResync) return;
  if (resyncActive(group)) return;
  if (!mgmt.target(entry.primary).online || !mgmt.target(entry.secondary).online) return;
  if (entry.resyncDebt == 0) {
    deployment_.mgmt().setMirrorState(group, MirrorState::kGood);
    return;
  }
  startResyncRound(group);
}

void FileSystem::startResyncRound(std::size_t group) {
  auto& mgmt = deployment_.mgmt();
  auto& fluid = deployment_.fluid();
  const auto& entry = mgmt.mirrorGroup(group);
  const util::Bytes delta = entry.resyncDebt;
  const auto& mirror = deployment_.params().mirror;
  mgmt.recordUsage(entry.secondary, delta);
  resync_[group] = fluid.startFlow(sim::FlowSpec{
      .path = deployment_.replicaPath(entry.primary, entry.secondary),
      .bytes = delta,
      .queueWeight = mirror.resyncQueueWeight,
      .rateCap = mirror.resyncRate,
      .onComplete =
          [this, group, delta](const sim::FlowStats& stats) {
            resync_[group] = sim::FlowId{};
            auto& mgmt = deployment_.mgmt();
            ++mirrorStats_.resyncJobs;
            mirrorStats_.bytesResynced += delta;
            mirrorStats_.resyncSeconds += stats.endTime - stats.startTime;
            mgmt.settleResyncDebt(group, delta);
            // Writes issued during the round re-opened debt: chain another
            // round until the delta drains, then the group is good again.
            maybeStartResync(group);
          },
  });
}

void FileSystem::cancelResync(std::size_t group) {
  if (resync_.empty() || resync_[group].value == 0) return;
  auto& fluid = deployment_.fluid();
  if (fluid.flowActive(resync_[group])) fluid.cancelFlow(resync_[group]);
  resync_[group] = sim::FlowId{};
}

void FileSystem::writeAsync(std::size_t node, FileHandle handle, util::Bytes offset,
                            util::Bytes length, double queueWeight,
                            std::function<void(util::Seconds)> done) {
  transferAsync(node, handle, offset, length, queueWeight, /*isWrite=*/true, std::move(done));
}

void FileSystem::readAsync(std::size_t node, FileHandle handle, util::Bytes offset,
                           util::Bytes length, double queueWeight,
                           std::function<void(util::Seconds)> done) {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  BEESIM_ASSERT(offset + length <= files_[handle.value].size,
                "read beyond the end of the file");
  transferAsync(node, handle, offset, length, queueWeight, /*isWrite=*/false,
                std::move(done));
}

void FileSystem::truncate(FileHandle handle, util::Bytes size) {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  files_[handle.value].size = size;
}

}  // namespace beesim::beegfs
