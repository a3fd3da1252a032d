#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace beesim::sim {

namespace {
constexpr std::uint64_t kSlotMask = 0xffffffffull;
}  // namespace

EventId Simulator::schedule(SimTime at, EventFn fn) {
  BEESIM_ASSERT(at >= now_, "cannot schedule an event in the past");
  BEESIM_ASSERT(fn != nullptr, "event callback must not be null");

  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    // Generations start at 1 so a default EventId{0} can never alias slot 0.
    slots_.back().generation = 1;
  }
  EventSlot& s = slots_[slot];
  s.fn = std::move(fn);
  s.pending = true;
  s.cancelled = false;

  heap_.push_back(QueuedEvent{at, nextSequence_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventId{slot | (static_cast<std::uint64_t>(s.generation) << 32)};
}

EventId Simulator::scheduleAfter(SimTime delay, EventFn fn) {
  BEESIM_ASSERT(delay >= 0.0, "event delay must be non-negative");
  return schedule(now_ + delay, std::move(fn));
}

void Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.value & kSlotMask);
  const auto generation = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= slots_.size()) return;
  EventSlot& s = slots_[slot];
  // The generation stamp rejects handles from a previous tenancy of the same
  // slot, so cancelling an already-fired id is a no-op and nothing grows.
  if (!s.pending || s.generation != generation || s.cancelled) return;
  s.cancelled = true;
  ++cancelledCount_;
}

void Simulator::retireSlot(std::uint32_t slot) {
  EventSlot& s = slots_[slot];
  s.fn = nullptr;
  s.pending = false;
  s.cancelled = false;
  ++s.generation;
  freeSlots_.push_back(slot);
}

Simulator::QueuedEvent Simulator::pop() {
  const QueuedEvent event = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return event;
}

void Simulator::purgeCancelledFront() {
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_.front().slot;
    if (!slots_[slot].cancelled) return;
    (void)pop();
    --cancelledCount_;
    retireSlot(slot);
  }
}

bool Simulator::step() {
  while (!heap_.empty()) {
    const QueuedEvent event = pop();
    EventSlot& s = slots_[event.slot];
    if (s.cancelled) {
      --cancelledCount_;
      retireSlot(event.slot);
      continue;
    }
    BEESIM_ASSERT(event.at >= now_, "event queue yielded an event in the past");
    now_ = event.at;
    // Move the callback out and retire the slot *before* invoking it: the
    // callback may schedule new events, which can then reuse this slot.
    EventFn fn = std::move(s.fn);
    retireSlot(event.slot);
    fn();
    return true;
  }
  return false;
}

std::size_t Simulator::run() {
  std::size_t processed = 0;
  while (step()) ++processed;
  return processed;
}

std::size_t Simulator::runUntil(SimTime limit) {
  std::size_t processed = 0;
  while (!heap_.empty()) {
    // Retire cancelled fronts first so the limit check reads the next *live*
    // event's timestamp (a cancelled early event must not pull a later live
    // one across the limit).
    purgeCancelledFront();
    if (heap_.empty() || heap_.front().at > limit) break;
    if (step()) ++processed;
  }
  if (now_ < limit) now_ = limit;
  return processed;
}

}  // namespace beesim::sim
