// Discrete-event simulation core.
//
// A Simulator owns virtual time and an event queue.  Events scheduled for the
// same instant fire in scheduling order (FIFO tie-break via a sequence
// number), which makes runs bit-reproducible.
//
// Storage is a slot pool: queue entries are trivially-copyable triples
// (time, sequence, slot) and callbacks live in generation-stamped slots that
// are recycled through a free list.  Once the pool has warmed up to the
// steady-state number of in-flight events, scheduling and cancelling perform
// no heap allocations (callbacks small enough for std::function's inline
// buffer included), which keeps the fluid resolver's hot path allocation-free.
//
// The queue is one binary min-heap of those triples.  Every event carries a
// globally unique sequence number, so the (time, sequence) order is total and
// dispatch order does not depend on the heap's internal layout.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/units.hpp"

namespace beesim::sim {

/// Virtual time in seconds.
using SimTime = util::Seconds;

/// Handle to a scheduled event, usable for cancellation.  Only ids returned
/// by the simulator that issued them are meaningful; stale ids (already
/// fired) are recognized via a per-slot generation stamp.
struct EventId {
  std::uint64_t value = 0;
};

using EventFn = std::function<void()>;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now()).
  EventId schedule(SimTime at, EventFn fn);

  /// Schedule `fn` after `delay` seconds (>= 0).
  EventId scheduleAfter(SimTime delay, EventFn fn);

  /// Cancel a pending event.  Cancelling an already-fired or unknown event is
  /// a harmless no-op (the generation stamp rejects stale handles), so long
  /// simulations can cancel freely without growing any bookkeeping.
  void cancel(EventId id);

  /// Execute the next pending event.  Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains; returns the number of events processed.
  std::size_t run();

  /// Run events with timestamps <= limit; afterwards now() == max(limit, last
  /// event time).  Returns the number of events processed.
  std::size_t runUntil(SimTime limit);

  /// Number of events still pending (cancelled events may be counted until
  /// they surface).
  std::size_t pending() const { return heap_.size(); }

  /// Number of cancellations waiting for their event to surface.  Bounded by
  /// pending(); stays 0 when cancelling only already-fired events (regression
  /// guard for the unbounded-growth bug).
  std::size_t cancelledBacklog() const { return cancelledCount_; }

 private:
  struct QueuedEvent {
    SimTime at;
    std::uint64_t sequence;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.sequence > b.sequence;  // FIFO among equal timestamps
    }
  };
  /// One pooled callback.  `generation` advances every time the slot is
  /// retired, so an EventId (slot | generation << 32) from a previous tenancy
  /// no longer matches.
  struct EventSlot {
    EventFn fn;
    std::uint32_t generation = 0;
    bool pending = false;
    bool cancelled = false;
  };

  void retireSlot(std::uint32_t slot);
  /// Pop the globally next event (smallest (at, sequence)); requires a
  /// non-empty heap.
  QueuedEvent pop();
  /// Retire cancelled events sitting at the global front so callers can read
  /// the true next timestamp.
  void purgeCancelledFront();

  SimTime now_ = 0.0;
  std::uint64_t nextSequence_ = 1;
  std::vector<QueuedEvent> heap_;  // binary min-heap under Later
  std::vector<EventSlot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  std::size_t cancelledCount_ = 0;
};

}  // namespace beesim::sim
