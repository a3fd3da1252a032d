#include "sim/fluid.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "sim/observer_hub.hpp"
#include "util/error.hpp"

namespace beesim::sim {

namespace {
// A flow is finished when fewer than this many MiB remain; guards against
// floating-point residue after piecewise integration.
constexpr double kRemainderEpsMiB = 1e-9;

constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

CapacityFn constantCapacity(util::MiBps capacity) {
  BEESIM_ASSERT(capacity >= 0.0, "capacity must be >= 0");
  return [capacity](const ResourceLoad&) { return capacity; };
}

// --- FluidSimulator ----------------------------------------------------

FluidSimulator::FluidSimulator() {
  const char* check = std::getenv("BEESIM_SOLVER_CHECK");
  if (check != nullptr && *check != '\0' && std::string_view(check) != "0") {
    solverCheck_ = true;
  }
}

FluidSimulator::~FluidSimulator() = default;  // out of line for the hub's type

void FluidSimulator::addObserver(FluidObserver* observer) {
  BEESIM_ASSERT(observer != nullptr, "addObserver needs an observer");
  if (observer_ == nullptr) {
    observer_ = observer;
    return;
  }
  if (observer_ == observer) return;
  if (hub_ != nullptr && observer_ == hub_.get()) {
    hub_->add(observer);
    return;
  }
  // A second distinct observer: promote the slot to the hub, preserving the
  // currently installed one ahead of the newcomer.  A hub from an earlier
  // episode is empty by now (removeObserver frees the slot only once the hub
  // empties), so it is reused as is.
  if (hub_ == nullptr) hub_ = std::make_unique<ObserverHub>();
  hub_->add(observer_);
  hub_->add(observer);
  observer_ = hub_.get();
}

void FluidSimulator::removeObserver(FluidObserver* observer) {
  if (observer == nullptr) return;
  if (observer_ == observer) {
    observer_ = nullptr;
    return;
  }
  if (hub_ != nullptr && observer_ == hub_.get()) {
    hub_->remove(observer);
    if (hub_->empty()) observer_ = nullptr;
  }
}

void FluidSimulator::setSolverCheck(bool enabled) {
  if (enabled && !solverCheck_) {
    // The shadows are only maintained while the check runs: restart them
    // from the cohorts' banked values.
    for (std::uint32_t slot = 0; slot < flowId_.size(); ++slot) {
      if (flowId_[slot] != 0) flowShadow_[slot] = cohortRemaining_[flowCohort_[slot]];
    }
  }
  solverCheck_ = enabled;
}

ResourceIndex FluidSimulator::addResource(ResourceSpec spec) {
  BEESIM_ASSERT(spec.capacity != nullptr, "resource needs a capacity model");
  const auto r = static_cast<std::uint32_t>(resources_.size());
  resources_.push_back(std::move(spec));
  return ResourceIndex{r};
}

void FluidSimulator::syncResourceState() {
  // Sized in one step when flows first need it, so registering the
  // thousands of resources of a large deployment appends one entry each.
  const auto n = resources_.size();
  if (comps_.size() == n) return;
  const auto old = static_cast<std::uint32_t>(comps_.size());
  resCapacity_.resize(n, 0.0);
  resFlowCount_.resize(n, 0);
  resQueueDepth_.resize(n, 0.0);
  resLoaded_.resize(n, 0);
  ufParent_.resize(n);
  ufSize_.resize(n, 1);
  comps_.resize(n);
  for (auto r = old; r < n; ++r) ufParent_[r] = r;
}

const std::string& FluidSimulator::resourceName(ResourceIndex idx) const {
  BEESIM_ASSERT(idx.value < resources_.size(), "unknown resource index");
  return resources_[idx.value].name;
}

std::uint32_t FluidSimulator::findRoot(std::uint32_t r) const {
  std::uint32_t root = r;
  while (ufParent_[root] != root) root = ufParent_[root];
  while (ufParent_[r] != root) {  // path compression
    const auto next = ufParent_[r];
    ufParent_[r] = root;
    r = next;
  }
  return root;
}

std::uint32_t FluidSimulator::rootOfFlow(std::uint32_t slot) const {
  return findRoot(classAdjacency_[classAdjOffset_[flowClass_[slot]]]);
}

std::uint32_t FluidSimulator::unite(std::uint32_t a, std::uint32_t b, SimTime at) {
  if (a == b) return a;
  BEESIM_ASSERT(comps_[a].lastProgress == at && comps_[b].lastProgress == at,
                "components must be advanced to the merge instant");
  if (ufSize_[a] < ufSize_[b]) std::swap(a, b);
  ufParent_[b] = a;
  ufSize_[a] += ufSize_[b];
  auto& ca = comps_[a];
  auto& cb = comps_[b];
  if (cb.head != kNone) {
    if (ca.head == kNone) {
      ca.head = cb.head;
    } else {
      flowNext_[ca.tail] = cb.head;
      flowPrev_[cb.head] = ca.tail;
    }
    ca.tail = cb.tail;
  }
  if (cb.cohortHead != kNone) {
    if (ca.cohortHead == kNone) {
      ca.cohortHead = cb.cohortHead;
    } else {
      cohortNext_[ca.cohortTail] = cb.cohortHead;
      cohortPrev_[cb.cohortHead] = ca.cohortTail;
    }
    ca.cohortTail = cb.cohortTail;
  }
  ca.flowCount += cb.flowCount;
  ca.nextCompletion = std::min(ca.nextCompletion, cb.nextCompletion);
  // Carry the absorbed component's deferral state: its accumulated capacity
  // drift and structural flag now belong to the merged component.
  ca.capDrift += cb.capDrift;
  if (cb.structural != 0) ca.structural = 1;
  if (cb.dirty != 0 && ca.dirty == 0) markDirty(a, false);
  ca.classesChanged = 1;
  releaseCompiled(b);
  cb = Component{};  // b is never a root again before the next reset
  listComponent(a);
  return a;
}

void FluidSimulator::markDirty(std::uint32_t root, bool structural) {
  if (structural) comps_[root].structural = 1;
  if (comps_[root].dirty != 0) return;
  comps_[root].dirty = 1;
  dirtyRoots_.push_back(root);
}

void FluidSimulator::listComponent(std::uint32_t root) {
  if (comps_[root].listed != 0) return;
  comps_[root].listed = 1;
  activeRoots_.push_back(root);
}

void FluidSimulator::releaseCompiled(std::uint32_t root) {
  if (comps_[root].compiled == kNone) return;
  freeCompiled_.push_back(comps_[root].compiled);
  comps_[root].compiled = kNone;
}

void FluidSimulator::resetComponents() {
  const auto n = static_cast<std::uint32_t>(comps_.size());
  const SimTime t = engine_.now();
  for (std::uint32_t r = 0; r < n; ++r) {
    ufParent_[r] = r;
    ufSize_[r] = 1;
    releaseCompiled(r);
    comps_[r] = Component{};
    comps_[r].lastProgress = t;
    resLoaded_[r] = 0;
  }
  activeRoots_.clear();
  dirtyRoots_.clear();
  loadedRes_.clear();
  pendingAllDirty_ = false;
  // Flow classes live exactly as long as the components: no flow is left
  // to reference one (and every cohort has been released with its last
  // member).
  classAdjacency_.clear();
  classAdjOffset_.clear();
  classAdjLen_.clear();
  classWeight_.clear();
  classRateCap_.clear();
  classHash_.clear();
  classLive_.clear();
  classRate_.clear();
  classNewest_.clear();
  classMark_.clear();
  std::fill(classBuckets_.begin(), classBuckets_.end(), kNone);
}

std::uint32_t FluidSimulator::classOf(const std::uint32_t* path, std::uint32_t len,
                                      double weight, double rateCap) {
  // FNV-1a over the key words; the bucket index only narrows the search,
  // equality is decided on the full key.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ull;
  };
  for (std::uint32_t i = 0; i < len; ++i) mix(path[i]);
  mix(std::bit_cast<std::uint64_t>(weight));
  mix(std::bit_cast<std::uint64_t>(rateCap));
  h ^= h >> 29;

  // Keep the load factor at or under one half; the table keeps its size
  // across drains, so a recurring episode rehashes nothing.
  if ((classHash_.size() + 1) * 2 > classBuckets_.size()) {
    classBuckets_.assign(std::max<std::size_t>(64, classBuckets_.size() * 2), kNone);
    const std::size_t mask = classBuckets_.size() - 1;
    for (std::uint32_t c = 0; c < classHash_.size(); ++c) {
      std::size_t b = classHash_[c] & mask;
      while (classBuckets_[b] != kNone) b = (b + 1) & mask;
      classBuckets_[b] = c;
    }
  }
  const std::size_t mask = classBuckets_.size() - 1;
  std::size_t b = h & mask;
  for (; classBuckets_[b] != kNone; b = (b + 1) & mask) {
    const auto c = classBuckets_[b];
    if (classHash_[c] == h && classAdjLen_[c] == len &&
        std::bit_cast<std::uint64_t>(classWeight_[c]) == std::bit_cast<std::uint64_t>(weight) &&
        std::bit_cast<std::uint64_t>(classRateCap_[c]) ==
            std::bit_cast<std::uint64_t>(rateCap) &&
        std::equal(path, path + len, classAdjacency_.data() + classAdjOffset_[c])) {
      return c;
    }
  }
  const auto c = static_cast<std::uint32_t>(classHash_.size());
  classBuckets_[b] = c;
  classAdjOffset_.push_back(static_cast<std::uint32_t>(classAdjacency_.size()));
  classAdjLen_.push_back(len);
  classAdjacency_.insert(classAdjacency_.end(), path, path + len);
  classWeight_.push_back(weight);
  classRateCap_.push_back(rateCap);
  classHash_.push_back(h);
  classLive_.push_back(0);
  classRate_.push_back(0.0);
  classNewest_.push_back(kNone);
  classMark_.push_back(0);
  return c;
}

std::uint32_t FluidSimulator::allocateFlowSlot() {
  std::uint32_t slot;
  if (!freeFlowSlots_.empty()) {
    slot = freeFlowSlots_.back();
    freeFlowSlots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flowId_.size());
    flowId_.push_back(0);
    flowGen_.push_back(0);
    flowStart_.push_back(0.0);
    flowBytes_.push_back(0);
    flowOnComplete_.emplace_back();
    flowClass_.push_back(0);
    flowCohort_.push_back(kNone);
    flowPrev_.push_back(kNone);
    flowNext_.push_back(kNone);
    flowCohortPrev_.push_back(kNone);
    flowCohortNext_.push_back(kNone);
    flowRound_.push_back(0);
    flowShadow_.push_back(0.0);
  }
  // Generation 0 is skipped on wrap-around so no handle is ever 0.
  if (++flowGen_[slot] == 0) flowGen_[slot] = 1;
  return slot;
}

void FluidSimulator::freeFlowSlot(std::uint32_t slot) {
  flowId_[slot] = 0;
  flowOnComplete_[slot] = nullptr;
  freeFlowSlots_.push_back(slot);
}

std::uint32_t FluidSimulator::liveSlot(FlowId id) const {
  const auto slot = static_cast<std::uint32_t>(id.value);
  return id.value != 0 && slot < flowId_.size() && flowId_[slot] == id.value ? slot : kNone;
}

std::uint32_t FluidSimulator::findCohort(std::uint32_t cls, double remaining) const {
  // Candidates: the class's newest cohort (it may have been stalled since
  // it opened) and every cohort the class opened at this instant, newest
  // first -- a node's ranks may start chunks of two sizes to one target at
  // one instant.  Older cohorts have moved, so their bytes cannot match.
  // Links are checked against the sequence numbers, since a released
  // cohort's id may have been reused since it was linked.
  std::uint64_t bound = std::numeric_limits<std::uint64_t>::max();
  for (auto h = classNewest_[cls]; h != kNone && cohortSeq_[h] < bound; h = cohortOlder_[h]) {
    if (cohortSize_[h] != 0 && cohortClass_[h] == cls &&
        std::bit_cast<std::uint64_t>(cohortRemaining_[h]) ==
            std::bit_cast<std::uint64_t>(remaining)) {
      return h;
    }
    if (cohortSeq_[h] < cohortInstantSeq_) break;
    bound = cohortSeq_[h];
  }
  return kNone;
}

std::uint32_t FluidSimulator::allocateCohort(std::uint32_t cls, double remaining,
                                             std::uint32_t root) {
  std::uint32_t h;
  if (!freeCohorts_.empty()) {
    h = freeCohorts_.back();
    freeCohorts_.pop_back();
  } else {
    h = static_cast<std::uint32_t>(cohortRemaining_.size());
    cohortRemaining_.push_back(0.0);
    cohortClass_.push_back(0);
    cohortHead_.push_back(kNone);
    cohortTail_.push_back(kNone);
    cohortSize_.push_back(0);
    cohortPrev_.push_back(kNone);
    cohortNext_.push_back(kNone);
    cohortFinished_.push_back(0);
    cohortOlder_.push_back(kNone);
    cohortSeq_.push_back(0);
  }
  cohortRemaining_[h] = remaining;
  cohortClass_[h] = cls;
  cohortOlder_[h] = classNewest_[cls];
  cohortSeq_[h] = cohortSeqNext_++;
  classNewest_[cls] = h;
  cohortHead_[h] = kNone;
  cohortTail_[h] = kNone;
  cohortSize_[h] = 0;
  cohortNext_[h] = kNone;
  cohortPrev_[h] = comps_[root].cohortTail;
  if (comps_[root].cohortTail == kNone) {
    comps_[root].cohortHead = h;
  } else {
    cohortNext_[comps_[root].cohortTail] = h;
  }
  comps_[root].cohortTail = h;
  return h;
}

void FluidSimulator::releaseCohort(std::uint32_t h, std::uint32_t root) {
  const auto prev = cohortPrev_[h];
  const auto next = cohortNext_[h];
  if (prev == kNone) {
    comps_[root].cohortHead = next;
  } else {
    cohortNext_[prev] = next;
  }
  if (next == kNone) {
    comps_[root].cohortTail = prev;
  } else {
    cohortPrev_[next] = prev;
  }
  if (classNewest_[cohortClass_[h]] == h) classNewest_[cohortClass_[h]] = kNone;
  cohortFinished_[h] = 0;
  freeCohorts_.push_back(h);
}

FlowId FluidSimulator::startFlow(FlowSpec spec) {
  BEESIM_ASSERT(!spec.path.empty(), "flow path must not be empty");
  for (const auto r : spec.path) {
    BEESIM_ASSERT(r.value < resources_.size(), "flow crosses an unknown resource");
  }
  const auto slot = allocateFlowSlot();
  const FlowId id{handleOf(slot)};
  const SimTime t = engine_.now();
  syncResourceState();
  flowStart_[slot] = t;
  flowBytes_[slot] = spec.bytes;
  flowOnComplete_[slot] = std::move(spec.onComplete);

  if (spec.bytes == 0) {
    // Degenerate flow: completes instantly, never enters the solver and is
    // never live.  The observer still sees the full start/complete lifecycle
    // so trace-derived flow counts agree with the callers' view; the slot
    // stays reserved until that +0 completion, so the handle stays unique.
    if (observer_ != nullptr) {
      observer_->onFlowStarted(id, spec.path, 0, t);
    }
    if (observer_ != nullptr || flowOnComplete_[slot]) {
      engine_.scheduleAfter(0.0, [this, slot] { completeSlot(slot, engine_.now()); });
    } else {
      freeFlowSlot(slot);
    }
    return id;
  }

  flowId_[slot] = id.value;

  const auto len = static_cast<std::uint32_t>(spec.path.size());
  pathScratch_.resize(len);
  for (std::uint32_t i = 0; i < len; ++i) pathScratch_[i] = spec.path[i].value;
  const auto cls = classOf(pathScratch_.data(), len, spec.queueWeight, spec.rateCap);
  flowClass_[slot] = cls;

  // Settle and merge the components the path touches.  Banking each
  // component's progress *before* membership changes keeps the piecewise
  // integration exact: old rates applied up to t, new rates from t on.
  std::uint32_t root = findRoot(spec.path[0].value);
  advanceComponent(root, t);
  for (std::uint32_t i = 1; i < len; ++i) {
    const auto rr = findRoot(spec.path[i].value);
    if (rr == root) continue;
    advanceComponent(rr, t);
    root = unite(root, rr, t);
  }

  flowNext_[slot] = kNone;
  flowPrev_[slot] = comps_[root].tail;
  if (comps_[root].tail == kNone) {
    comps_[root].head = slot;
  } else {
    flowNext_[comps_[root].tail] = slot;
  }
  comps_[root].tail = slot;
  ++comps_[root].flowCount;

  // Join a cohort of the class that still holds exactly this many bytes:
  // from here on the shared class rate keeps them equal.
  const double remaining = util::toMiB(spec.bytes);
  if (t != cohortInstant_) {
    cohortInstant_ = t;
    cohortInstantSeq_ = cohortSeqNext_;
  }
  auto h = findCohort(cls, remaining);
  if (h == kNone) h = allocateCohort(cls, remaining, root);
  flowCohort_[slot] = h;
  flowCohortNext_[slot] = kNone;
  flowCohortPrev_[slot] = cohortTail_[h];
  if (cohortTail_[h] == kNone) {
    cohortHead_[h] = slot;
  } else {
    flowCohortNext_[cohortTail_[h]] = slot;
  }
  cohortTail_[h] = slot;
  ++cohortSize_[h];
  if (classLive_[cls]++ == 0) comps_[root].classesChanged = 1;
  flowRound_[slot] = solveRound_;
  flowShadow_[slot] = remaining;

  for (std::uint32_t i = 0; i < len; ++i) {
    const auto r = spec.path[i].value;
    if (resLoaded_[r] == 0) {
      resLoaded_[r] = 1;
      loadedRes_.push_back(r);
    }
    ++resFlowCount_[r];
    resQueueDepth_[r] += spec.queueWeight;
  }
  markDirty(root);
  listComponent(root);

  if (observer_ != nullptr) observer_->onFlowStarted(id, spec.path, spec.bytes, t);
  ++activeCount_;
  scheduleResolve();
  return id;
}

void FluidSimulator::startFlowAt(SimTime at, FlowSpec spec) {
  engine_.schedule(at, [this, spec = std::move(spec)]() mutable { startFlow(std::move(spec)); });
}

util::MiBps FluidSimulator::flowRate(FlowId id) const {
  const auto slot = liveSlot(id);
  return slot == kNone ? 0.0 : rateOf(slot);
}

bool FluidSimulator::flowActive(FlowId id) const { return liveSlot(id) != kNone; }

void FluidSimulator::unlinkFlow(std::uint32_t slot, std::uint32_t root) {
  const auto prev = flowPrev_[slot];
  const auto next = flowNext_[slot];
  if (prev == kNone) {
    comps_[root].head = next;
  } else {
    flowNext_[prev] = next;
  }
  if (next == kNone) {
    comps_[root].tail = prev;
  } else {
    flowPrev_[next] = prev;
  }
  --comps_[root].flowCount;

  const auto h = flowCohort_[slot];
  const auto cprev = flowCohortPrev_[slot];
  const auto cnext = flowCohortNext_[slot];
  if (cprev == kNone) {
    cohortHead_[h] = cnext;
  } else {
    flowCohortNext_[cprev] = cnext;
  }
  if (cnext == kNone) {
    cohortTail_[h] = cprev;
  } else {
    flowCohortPrev_[cnext] = cprev;
  }
  if (--cohortSize_[h] == 0) releaseCohort(h, root);
  if (--classLive_[flowClass_[slot]] == 0) comps_[root].classesChanged = 1;
}

std::optional<util::Bytes> FluidSimulator::cancelFlow(FlowId id) {
  const auto slot = liveSlot(id);
  if (slot == kNone) return std::nullopt;
  const SimTime t = engine_.now();
  const auto root = rootOfFlow(slot);
  advanceComponent(root, t);

  const double remainingMiB = std::max(0.0, cohortRemaining_[flowCohort_[slot]]);
  unlinkFlow(slot, root);
  const auto remaining = static_cast<util::Bytes>(
      std::min<double>(std::ceil(remainingMiB * static_cast<double>(util::kMiB)),
                       static_cast<double>(flowBytes_[slot])));
  if (observer_ != nullptr) {
    observer_->onFlowCancelled(FlowStats{id, flowStart_[slot], t, remaining});
  }

  removeFlowLoad(slot);
  --activeCount_;
  freeFlowSlot(slot);
  markDirty(root);
  scheduleResolve();
  return remaining;
}

void FluidSimulator::invalidateCapacities() {
  pendingAllDirty_ = true;
  scheduleResolve();
}

void FluidSimulator::setSolverEpsilon(double epsilon) {
  BEESIM_ASSERT(epsilon >= 0.0, "solver epsilon must be >= 0");
  BEESIM_ASSERT(std::isfinite(epsilon), "solver epsilon must be finite");
  epsilon_ = epsilon;
}

void FluidSimulator::scheduleResolve() {
  if (resolvePending_) return;
  resolvePending_ = true;
  engine_.scheduleAfter(0.0, [this] {
    resolvePending_ = false;
    resolveNow();
  });
}

void FluidSimulator::advanceComponent(std::uint32_t root, SimTime t) {
  BEESIM_ASSERT(t >= comps_[root].lastProgress, "component progress moved backwards");
  const double dt = t - comps_[root].lastProgress;
  if (dt > 0.0) {
    // Every member of a cohort would perform this very update on the same
    // values.  (A flow not yet solved transfers at 0, but no time passes
    // between its start and its first solve.)
    for (auto h = comps_[root].cohortHead; h != kNone; h = cohortNext_[h]) {
      cohortRemaining_[h] =
          std::max(0.0, cohortRemaining_[h] - classRate_[cohortClass_[h]] * dt);
    }
    if (solverCheck_) {
      // The independent per-flow record the check compares against.
      for (auto slot = comps_[root].head; slot != kNone; slot = flowNext_[slot]) {
        flowShadow_[slot] = std::max(0.0, flowShadow_[slot] - rateOf(slot) * dt);
      }
    }
  }
  comps_[root].lastProgress = t;
}

void FluidSimulator::removeFlowLoad(std::uint32_t slot) {
  const auto c = flowClass_[slot];
  const auto* adj = classAdjacency_.data() + classAdjOffset_[c];
  for (std::uint32_t i = 0; i < classAdjLen_[c]; ++i) {
    const auto r = adj[i];
    --resFlowCount_[r];
    resQueueDepth_[r] -= classWeight_[c];
    // Reset to exactly zero when the resource empties so repeated +/- of
    // doubles cannot leave a residue in the queue-depth accounting.
    if (resFlowCount_[r] == 0) resQueueDepth_[r] = 0.0;
  }
}

void FluidSimulator::finishFlow(std::uint32_t slot, std::uint32_t root) {
  unlinkFlow(slot, root);
  removeFlowLoad(slot);
  --activeCount_;
  // Callbacks are deferred to the drain list: an onComplete that starts
  // new flows (the IOR segment chain does) must not mutate component
  // lists while this sweep walks them.  The slot stays reserved until its
  // completion is reported, or a flow started by an earlier callback of the
  // batch could take it -- and its handle -- first.
  flowId_[slot] = 0;
  drain_.push_back(slot);
}

void FluidSimulator::completeSlot(std::uint32_t slot, SimTime end) {
  const FlowStats stats{FlowId{handleOf(slot)}, flowStart_[slot], end, flowBytes_[slot]};
  const auto onComplete = std::move(flowOnComplete_[slot]);
  if (observer_ != nullptr) observer_->onFlowCompleted(stats);
  if (onComplete) onComplete(stats);
  freeFlowSlot(slot);
}

void FluidSimulator::settleComponent(std::uint32_t root, SimTime t) {
  advanceComponent(root, t);
  std::uint32_t finished = 0;
  std::uint32_t last = kNone;
  for (auto h = comps_[root].cohortHead; h != kNone; h = cohortNext_[h]) {
    if (cohortRemaining_[h] <= kRemainderEpsMiB) {
      cohortFinished_[h] = 1;
      ++finished;
      last = h;
    }
  }
  // Completions drain in component-list order.  One finished cohort's
  // member list already is in that order; several are picked out of one
  // walk over the component list.
  if (finished == 1) {
    for (auto slot = cohortHead_[last]; slot != kNone;) {
      const auto next = flowCohortNext_[slot];
      finishFlow(slot, root);
      slot = next;
    }
  } else if (finished > 1) {
    for (auto slot = comps_[root].head; slot != kNone;) {
      const auto next = flowNext_[slot];
      if (cohortFinished_[flowCohort_[slot]] != 0) finishFlow(slot, root);
      slot = next;
    }
  }
}

bool FluidSimulator::gatherClasses(std::uint32_t root) {
  subsetClasses_.clear();
  for (auto h = comps_[root].cohortHead; h != kNone; h = cohortNext_[h]) {
    const auto c = cohortClass_[h];
    if (classMark_[c] != 0) continue;
    classMark_[c] = 1;
    subsetClasses_.push_back(c);
  }
  bool oneWeight = true;
  for (const auto c : subsetClasses_) {
    classMark_[c] = 0;
    if (classWeight_[c] != classWeight_[subsetClasses_.front()]) oneWeight = false;
  }
  return oneWeight;
}

std::size_t FluidSimulator::solvePositions(std::span<const std::uint32_t> slots,
                                           SolverWorkspace& workspace) {
  const std::size_t n = slots.size();
  posOffset_.resize(n);
  posLen_.resize(n);
  posWeight_.resize(n);
  posRateCap_.resize(n);
  posRate_.resize(n);
  while (positions_.size() < n) {
    positions_.push_back(static_cast<std::uint32_t>(positions_.size()));
  }
  for (std::size_t j = 0; j < n; ++j) {
    const auto c = flowClass_[slots[j]];
    posOffset_[j] = classAdjOffset_[c];
    posLen_[j] = classAdjLen_[c];
    posWeight_[j] = classWeight_[c];
    posRateCap_[j] = classRateCap_[c];
  }
  const SolverView view{resCapacity_, classAdjacency_, posOffset_,
                        posLen_,      posWeight_,      posRateCap_};
  const std::span<const std::uint32_t> subset(positions_.data(), n);
  return workspace.solveSubset(view, subset, posRate_);
}

void FluidSimulator::solveComponent(std::uint32_t r) {
  // A component whose classes share one weight is solved over its compiled
  // class problem (bit-identical, see maxmin.hpp), recompiled only when a
  // class entered or left or components merged; otherwise the flows are
  // solved one by one over the position view, in component-list order.
  auto& comp = comps_[r];
  const bool changed = comp.classesChanged != 0;
  comp.classesChanged = 0;
  if (changed) comp.oneWeight = gatherClasses(r) ? 1 : 0;
  if (referenceSolver_ || comp.oneWeight == 0) {
    if (changed) releaseCompiled(r);  // stale from here on
    subsetSlots_.clear();
    for (auto slot = comp.head; slot != kNone; slot = flowNext_[slot]) {
      subsetSlots_.push_back(slot);
    }
    solverIterations_ += solvePositions(subsetSlots_, workspace_);
    // Members of one class receive bit-identical rates from the per-flow
    // solve (same operations on the same values), so any one stands for it.
    for (std::size_t j = 0; j < subsetSlots_.size(); ++j) {
      classRate_[flowClass_[subsetSlots_[j]]] = posRate_[j];
    }
    return;
  }
  if (changed || comp.compiled == kNone) {
    if (!changed) gatherClasses(r);
    if (comp.compiled == kNone) {
      if (freeCompiled_.empty()) {
        freeCompiled_.push_back(static_cast<std::uint32_t>(compiled_.size()));
        compiled_.emplace_back();
      }
      comp.compiled = freeCompiled_.back();
      freeCompiled_.pop_back();
    }
    const SolverView classView{resCapacity_, classAdjacency_, classAdjOffset_,
                               classAdjLen_, classWeight_,    classRateCap_};
    workspace_.compileClasses(classView, subsetClasses_, compiled_[comp.compiled]);
  }
  solverIterations_ += workspace_.solveCompiled(compiled_[comp.compiled], resCapacity_,
                                                classLive_, classRate_, resFlowCount_);
}

void FluidSimulator::resolveNow() {
  // RAII timer so every exit path (including the drained early-return) banks
  // its wall time; the clock is only touched when profiling is on.
  struct ProfileScope {
    bool on;
    double& sink;
    std::chrono::steady_clock::time_point start;
    explicit ProfileScope(bool enabled, double& total)
        : on(enabled), sink(total),
          start(enabled ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{}) {}
    ~ProfileScope() {
      if (on) {
        sink += std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                    .count();
      }
    }
  } profile(profiling_, solveSeconds_);

  const SimTime t = engine_.now();
  ++resolveCount_;
  syncResourceState();

  // 1. Components whose next completion is due: bank progress and move the
  //    finished flows out.  A due component is re-solved regardless, so its
  //    completion horizon is refreshed even when rounding left a sliver.
  for (std::size_t i = 0; i < activeRoots_.size();) {
    const auto r = activeRoots_[i];
    if (findRoot(r) != r || comps_[r].flowCount == 0) {
      comps_[r].listed = 0;
      activeRoots_[i] = activeRoots_.back();
      activeRoots_.pop_back();
      continue;
    }
    if (comps_[r].nextCompletion <= t) {
      settleComponent(r, t);
      markDirty(r);
    }
    ++i;
  }

  // 2. Run the deferred completion callbacks.  These may start new flows
  //    (which merge/dirty components and queue another +0 resolve -- that one
  //    will find everything clean) or invalidate capacities.
  for (const auto slot : drain_) completeSlot(slot, t);
  drain_.clear();

  // 3. System drained: reset the merge-only union-find so the next episode
  //    starts from singleton components.
  if (activeCount_ == 0) {
    resetComponents();
    return;
  }

  // 4. Evaluate the capacity of every *loaded* resource (capacity models are
  //    pure given (load, time), so clean components keep mathematically
  //    identical rates) and dirty the component of any resource whose
  //    capacity moved.  The loaded list is compacted lazily so this loop --
  //    the only per-resolve full sweep left -- costs O(resources carrying
  //    flows), not O(cluster inventory).  Capacity-only changes are marked
  //    non-structural and feed the component's |Δcapacity| drift; a
  //    transition to or from exactly zero forces a structural (never
  //    deferred) re-solve so stall/unstall is always observed.
  if (pendingAllDirty_) {
    pendingAllDirty_ = false;
    for (std::size_t i = 0; i < activeRoots_.size();) {
      const auto r = activeRoots_[i];
      if (findRoot(r) != r || comps_[r].flowCount == 0) {
        comps_[r].listed = 0;
        activeRoots_[i] = activeRoots_.back();
        activeRoots_.pop_back();
        continue;
      }
      markDirty(r, false);
      ++i;
    }
  }
  for (std::size_t i = 0; i < loadedRes_.size();) {
    const auto r = loadedRes_[i];
    if (resFlowCount_[r] == 0) {
      resLoaded_[r] = 0;
      loadedRes_[i] = loadedRes_.back();
      loadedRes_.pop_back();
      continue;
    }
    const ResourceLoad load{resFlowCount_[r], resQueueDepth_[r], t};
    const double cap = resources_[r].capacity(load);
    BEESIM_ASSERT(cap >= 0.0,
                  "capacity model returned a negative rate for " + resources_[r].name);
    if (cap != resCapacity_[r]) {
      const auto root = findRoot(r);
      comps_[root].capDrift += std::abs(cap - resCapacity_[r]);
      const bool zeroEdge = cap == 0.0 || resCapacity_[r] == 0.0;
      resCapacity_[r] = cap;
      markDirty(root, zeroEdge);
    }
    ++i;
  }

  // 5. Re-solve each dirty component in isolation (max-min decomposes
  //    exactly over connected components).  A component whose dirtiness is
  //    purely capacity drift bounded by ε may be *deferred*: weighted
  //    max-min rates are 1-Lipschitz in each capacity and subadditive across
  //    changes, so Σ|Δcapacity| bounds every flow's rate movement.  Skipped
  //    components keep their simulated rates and completion horizons (both
  //    still describe the trajectory actually being integrated), and the
  //    drift carries over so repeated small wobbles eventually force an
  //    exact solve.
  solvedIds_.clear();
  solvedRates_.clear();
  std::size_t solvedCount = 0;
  const bool record = observer_ != nullptr;
  for (std::size_t i = 0; i < dirtyRoots_.size(); ++i) {
    const auto listed = dirtyRoots_[i];
    const auto r = findRoot(listed);
    if (comps_[r].dirty == 0) continue;  // merged away or already solved
    if (epsilon_ > 0.0 && comps_[r].structural == 0 && comps_[r].capDrift <= epsilon_ &&
        comps_[r].flowCount != 0) {
      comps_[r].dirty = 0;
      ++deferredResolves_;
      continue;
    }
    comps_[r].dirty = 0;
    comps_[r].structural = 0;
    comps_[r].capDrift = 0.0;
    if (comps_[r].flowCount == 0) {
      comps_[r].nextCompletion = kInf;
      continue;
    }
    advanceComponent(r, t);
    solveComponent(r);
    solvedCount += comps_[r].flowCount;
    // Members of a cohort share its remaining bytes and their class rate,
    // so the earliest completion is a min over cohorts.
    double horizon = kInf;
    for (auto h = comps_[r].cohortHead; h != kNone; h = cohortNext_[h]) {
      const double rate = classRate_[cohortClass_[h]];
      if (rate > 0.0) horizon = std::min(horizon, cohortRemaining_[h] / rate);
    }
    comps_[r].nextCompletion = std::isfinite(horizon) ? t + horizon : kInf;
    if (record) {
      for (auto slot = comps_[r].head; slot != kNone; slot = flowNext_[slot]) {
        solvedIds_.push_back(FlowId{flowId_[slot]});
        solvedRates_.push_back(classRate_[flowClass_[slot]]);
      }
    }
  }
  dirtyRoots_.clear();
  // Every flow started before this point has now been through a solve.
  ++solveRound_;
  lastSolvedFlows_ = solvedCount;

  if (solverCheck_) runSolverCheck();

  if (observer_ != nullptr && !solvedIds_.empty()) {
    observer_->onRatesSolved(t, solvedIds_, solvedRates_, activeCount_);
  }
  scheduleNextWakeup();
}

void FluidSimulator::scheduleNextWakeup() {
  if (wakeup_) {
    engine_.cancel(*wakeup_);
    wakeup_.reset();
  }
  if (activeCount_ == 0) return;

  const SimTime t = engine_.now();
  double horizon = kInf;
  for (std::size_t i = 0; i < activeRoots_.size();) {
    const auto r = activeRoots_[i];
    if (findRoot(r) != r || comps_[r].flowCount == 0) {
      comps_[r].listed = 0;
      activeRoots_[i] = activeRoots_.back();
      activeRoots_.pop_back();
      continue;
    }
    horizon = std::min(horizon, comps_[r].nextCompletion - t);
    ++i;
  }
  if (resolveInterval_ > 0.0) horizon = std::min(horizon, resolveInterval_);
  if (!std::isfinite(horizon)) {
    // Every active flow is stalled (rate 0).  If no external event will ever
    // change capacities, run() will detect the deadlock.
    return;
  }
  // Clamp the advance to the clock's representable granularity: at a large
  // virtual time T, adding a horizon below ~T*eps would not move the clock
  // at all, and a nearly-finished flow (~1e-12 MiB left) would respin this
  // wakeup at the same instant forever.  The clamp (a few ULPs of T) is far
  // below any physically meaningful interval.
  const double minAdvance =
      std::max(1e-9, t * 4.0 * std::numeric_limits<double>::epsilon());
  horizon = std::max(horizon, minAdvance);
  wakeup_ = engine_.scheduleAfter(horizon, [this] {
    wakeup_.reset();
    resolveNow();
  });
}

void FluidSimulator::runSolverCheck() {
  // Differential mode: recount loads, class members and component class
  // sets exactly, compare every flow's cohort against its per-flow shadow,
  // and re-solve *all* live flows from scratch with a scratch workspace.
  // Allocation-freedom is not a goal here; this path only runs when
  // explicitly enabled.
  std::vector<std::uint32_t> countCheck(resources_.size(), 0);
  std::vector<double> depthCheck(resources_.size(), 0.0);
  std::vector<std::uint32_t> liveCheck(classHash_.size(), 0);
  std::vector<std::uint32_t> checkSlots;
  for (std::uint32_t slot = 0; slot < flowId_.size(); ++slot) {
    if (flowId_[slot] == 0) continue;
    checkSlots.push_back(slot);
    BEESIM_ASSERT(flowId_[slot] == handleOf(slot),
                  "solver check: a live flow's id is not its slot's current handle");
    const auto c = flowClass_[slot];
    ++liveCheck[c];
    const auto* adj = classAdjacency_.data() + classAdjOffset_[c];
    for (std::uint32_t i = 0; i < classAdjLen_[c]; ++i) {
      ++countCheck[adj[i]];
      depthCheck[adj[i]] += classWeight_[c];
    }
    const auto h = flowCohort_[slot];
    BEESIM_ASSERT(cohortClass_[h] == c, "solver check: flow sits in another class's cohort");
    BEESIM_ASSERT(std::bit_cast<std::uint64_t>(flowShadow_[slot]) ==
                      std::bit_cast<std::uint64_t>(cohortRemaining_[h]),
                  "solver check: cohort remaining bytes diverged for flow #" +
                      std::to_string(flowId_[slot]) + " (" +
                      std::to_string(cohortRemaining_[h]) + " vs per-flow " +
                      std::to_string(flowShadow_[slot]) + ")");
  }
  BEESIM_ASSERT(checkSlots.size() == activeCount_,
                "solver check: live-slot count disagrees with activeFlows()");
  std::vector<char> reserved(flowId_.size(), 0);
  for (const auto slot : drain_) reserved[slot] = 1;
  for (const auto slot : freeFlowSlots_) {
    BEESIM_ASSERT(flowId_[slot] == 0 && reserved[slot] == 0,
                  "solver check: a free flow slot is live, awaits its completion, or is "
                  "listed twice");
    reserved[slot] = 1;
  }
  for (std::uint32_t c = 0; c < classHash_.size(); ++c) {
    BEESIM_ASSERT(liveCheck[c] == classLive_[c], "solver check: stale class member count");
  }
  std::size_t compTotal = 0;
  for (const auto r : activeRoots_) {
    if (findRoot(r) != r) continue;
    compTotal += comps_[r].flowCount;
    if (comps_[r].flowCount == 0 || comps_[r].classesChanged != 0) continue;
    // The compiled class set must be exactly the classes live in r.
    std::vector<std::uint32_t> expect;
    bool oneWeight = true;
    for (std::uint32_t c = 0; c < classHash_.size(); ++c) {
      if (liveCheck[c] != 0 && findRoot(classAdjacency_[classAdjOffset_[c]]) == r) {
        if (!expect.empty() && classWeight_[c] != classWeight_[expect.front()]) {
          oneWeight = false;
        }
        expect.push_back(c);
      }
    }
    BEESIM_ASSERT(oneWeight == (comps_[r].oneWeight != 0),
                  "solver check: stale one-weight flag of a component");
    if (!oneWeight || referenceSolver_ || comps_[r].compiled == kNone) continue;
    std::vector<std::uint32_t> got = compiled_[comps_[r].compiled].slot;
    std::sort(got.begin(), got.end());
    BEESIM_ASSERT(got == expect, "solver check: stale compiled class set");
  }
  BEESIM_ASSERT(compTotal == activeCount_,
                "solver check: component flow counts disagree with activeFlows()");
  for (std::uint32_t r = 0; r < resources_.size(); ++r) {
    BEESIM_ASSERT(countCheck[r] == resFlowCount_[r],
                  "solver check: stale flow count on " + resources_[r].name);
    BEESIM_ASSERT(std::abs(depthCheck[r] - resQueueDepth_[r]) <=
                      1e-9 * std::max(1.0, std::abs(depthCheck[r])),
                  "solver check: stale queue depth on " + resources_[r].name);
  }

  // The scratch solve runs flow by flow, so in the default configuration
  // this also differentially pins the class solve.  With ε-deferral enabled
  // the maintained rates may lag the exact solution by up to the configured
  // bound, so the tolerance widens by ε.
  solvePositions(checkSlots, checkWorkspace_);
  for (std::size_t j = 0; j < checkSlots.size(); ++j) {
    const auto slot = checkSlots[j];
    const double expect = posRate_[j];
    const double got = rateOf(slot);
    BEESIM_ASSERT(std::abs(got - expect) <=
                      1e-9 * std::max(1.0, std::abs(expect)) + epsilon_,
                  "solver check: incremental rate diverged for flow #" +
                      std::to_string(flowId_[slot]) + " (" + std::to_string(got) +
                      " vs " + std::to_string(expect) + ")");
  }
}

void FluidSimulator::run() {
  engine_.run();
  if (activeCount_ == 0) return;
  // Events drained but flows remain: all rates are zero and nothing will
  // change them.  Name the first few stalled flows and their paths -- the
  // resource whose capacity model returned 0 is almost always in there.
  std::string msg = "fluid simulation deadlocked: " + std::to_string(activeCount_) +
                    " flow(s) stalled at zero rate";
  std::size_t listed = 0;
  for (std::uint32_t slot = 0; slot < flowId_.size() && listed < 5; ++slot) {
    if (flowId_[slot] == 0) continue;
    ++listed;
    msg += "\n  flow #" + std::to_string(flowId_[slot]) + " via [";
    const auto c = flowClass_[slot];
    for (std::uint32_t i = 0; i < classAdjLen_[c]; ++i) {
      if (i > 0) msg += " -> ";
      msg += resources_[classAdjacency_[classAdjOffset_[c] + i]].name;
    }
    msg += "]";
  }
  if (activeCount_ > listed) {
    msg += "\n  ... and " + std::to_string(activeCount_ - listed) + " more";
  }
  BEESIM_ASSERT(false, msg);
}

}  // namespace beesim::sim
