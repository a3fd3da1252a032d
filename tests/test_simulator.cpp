#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

#include "util/error.hpp"

namespace beesim::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsFireInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CallbacksMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.scheduleAfter(1.0, chain);
  };
  sim.scheduleAfter(1.0, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule(1.0, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireLeavesNoBacklog) {
  // Regression: cancelling an event that already fired (or never existed)
  // used to park the id in the cancelled-set forever, leaking memory over a
  // long campaign.  Only ids still in the queue may enter the backlog.
  Simulator sim;
  const auto id = sim.schedule(1.0, [] {});
  sim.run();
  sim.cancel(id);               // already fired
  sim.cancel(EventId{12345});   // never scheduled
  EXPECT_EQ(sim.cancelledBacklog(), 0u);
}

TEST(Simulator, CancelledBacklogDrainsWhenEventsExpire) {
  Simulator sim;
  const auto id = sim.schedule(1.0, [] {});
  sim.cancel(id);
  EXPECT_EQ(sim.cancelledBacklog(), 1u);
  sim.run();  // the cancelled event is skipped and its marker retired
  EXPECT_EQ(sim.cancelledBacklog(), 0u);
}

TEST(Simulator, StaleCancelDoesNotHitRecycledSlot) {
  // The event pool recycles slots; a handle kept past its event's firing
  // must not cancel whatever event reuses the slot (generation stamp).
  Simulator sim;
  const auto a = sim.schedule(1.0, [] {});
  sim.run();
  bool ran = false;
  sim.schedule(2.0, [&] { ran = true; });  // reuses a's slot
  sim.cancel(a);                           // stale handle
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.cancelledBacklog(), 0u);
}

TEST(Simulator, CancelUnknownIdIsHarmless) {
  Simulator sim;
  sim.cancel(EventId{999});
  bool ran = false;
  sim.schedule(1.0, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule(t, [&fired, t] { fired.push_back(t); });
  }
  EXPECT_EQ(sim.runUntil(2.5), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.run(), 2u);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.runUntil(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule(4.0, [] {}), util::ContractError);
  EXPECT_THROW(sim.scheduleAfter(-1.0, [] {}), util::ContractError);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(1.0, nullptr), util::ContractError);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

/// Drive `sim` through a deterministic but adversarial schedule -- duplicate
/// timestamps, cancellations (pending, fired and stale), callbacks that
/// schedule and cancel more events -- and return the dispatch order.
std::vector<int> adversarialDispatchOrder(Simulator& sim) {
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 40; ++i) {
    // Timestamps collide on purpose: i%7 buckets, FIFO inside each.
    ids.push_back(sim.schedule(1.0 + i % 7, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 40; i += 5) sim.cancel(ids[i]);  // pending cancels
  sim.schedule(2.5, [&] {
    order.push_back(100);
    for (int i = 1; i < 40; i += 10) sim.cancel(ids[i]);  // mid-run cancels
    sim.schedule(2.5, [&order] { order.push_back(101); });  // same instant
    sim.scheduleAfter(10.0, [&order] { order.push_back(102); });
  });
  sim.runUntil(3.0);
  sim.cancel(ids[2]);  // stale cancel: already fired at t=1+2
  sim.run();
  return order;
}

TEST(Simulator, DispatchOrderIsTimeThenFifoMinusCancelled) {
  // The expected sequence is written out by hand from the schedule above:
  // buckets t = 1..7 hold i with i % 7 == t - 1 in scheduling order; 0, 5,
  // 10, ... 35 are cancelled up front; at t = 2.5 event 100 cancels 11 and 31
  // (1 and 21 have already fired) and queues 101 behind itself and 102 at
  // t = 12.5.  Golden-CSV byte-identity rests on exactly this order.
  Simulator sim;
  const std::vector<int> expected = {
      7, 14, 21, 28,                // t = 1 (0, 35 cancelled)
      1, 8, 22, 29, 36,             // t = 2 (15 cancelled)
      100, 101,                     // t = 2.5, FIFO
      2, 9, 16, 23, 37,             // t = 3 (30 cancelled)
      3, 17, 24, 38,                // t = 4 (10 cancelled, 31 mid-run)
      4, 18, 32, 39,                // t = 5 (25 cancelled, 11 mid-run)
      12, 19, 26, 33,               // t = 6 (5 cancelled)
      6, 13, 27, 34,                // t = 7 (20 cancelled)
      102};                         // t = 12.5
  EXPECT_EQ(adversarialDispatchOrder(sim), expected);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.cancelledBacklog(), 0u);
}

TEST(Simulator, RunUntilStopsAtLimitWithCancelledFront) {
  // A cancelled event sitting at the global front must not make runUntil
  // overshoot: the purge retires it so the clock advances to the limit, not
  // to the next live event's timestamp.
  Simulator sim;
  bool lateRan = false;
  const auto cancelled = sim.schedule(1.0, [] { FAIL() << "cancelled event ran"; });
  sim.schedule(5.0, [&] { lateRan = true; });
  sim.cancel(cancelled);
  EXPECT_EQ(sim.runUntil(2.0), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_FALSE(lateRan);
  sim.run();
  EXPECT_TRUE(lateRan);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, TicketFiresAtItsReservedKey) {
  // A ticket keeps the sequence number of its reservation: scheduled after
  // two same-instant events, it still fires between them.
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAfter(1.0, [&] { order.push_back(1); });
  const Ticket ticket = sim.reserveAfter(1.0);
  sim.scheduleAfter(1.0, [&] { order.push_back(3); });
  sim.schedule(ticket, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TicketInThePastThrows) {
  Simulator sim;
  const Ticket ticket = sim.reserveAfter(1.0);
  sim.schedule(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule(ticket, [] {}), util::ContractError);
  EXPECT_THROW(sim.reserveAfter(-1.0), util::ContractError);
}

/// How an event of the random schedule below is put into the queue.
enum class Placement {
  kDirect,    ///< scheduleAfter
  kLater,     ///< reserved, scheduled at the end of its creator's callback
  kFlushed,   ///< reserved, scheduled by a helper event halfway to its time
  kDropped,   ///< reserved, never scheduled (a leaf)
};

struct RandomEvent {
  double delay = 0.0;
  Placement placement = Placement::kDirect;
  std::vector<int> children;
};

/// Dispatch order of the random schedule `events` (event 0 is the root's
/// batch, created at t = 0).  With `tickets` each event is placed as its
/// Placement says; without, every event is scheduled directly.
std::vector<int> randomScheduleOrder(const std::vector<RandomEvent>& events, bool tickets) {
  Simulator sim;
  std::vector<int> order;
  std::function<void(int)> create;
  const auto fire = [&](int id) {
    order.push_back(id);
    std::vector<std::pair<Ticket, int>> later;
    for (const int child : events[static_cast<std::size_t>(id)].children) {
      const auto& spec = events[static_cast<std::size_t>(child)];
      if (!tickets || spec.placement == Placement::kDirect) {
        sim.scheduleAfter(spec.delay, [&create, child] { create(child); });
        continue;
      }
      const Ticket ticket = sim.reserveAfter(spec.delay);
      if (spec.placement == Placement::kLater) {
        later.emplace_back(ticket, child);
      } else if (spec.placement == Placement::kFlushed) {
        sim.scheduleAfter(spec.delay / 2.0, [&sim, &create, ticket, child] {
          sim.schedule(ticket, [&create, child] { create(child); });
        });
      }
    }
    // Inserted in reverse: a ticket's key, not its insertion, orders it.
    for (auto it = later.rbegin(); it != later.rend(); ++it) {
      const int child = it->second;
      sim.schedule(it->first, [&create, child] { create(child); });
    }
  };
  create = fire;
  fire(0);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  order.erase(order.begin());  // the root
  return order;
}

TEST(Simulator, TicketsDispatchLikeDirectSchedulingMinusDroppedOnRandomSchedules) {
  // Random trees of events on dyadic delays (k/8 s, so sums are exact and
  // ties are common).  Scheduling some events from tickets -- later in the
  // creating callback, or from another event before they are due -- must
  // reproduce the direct-scheduling order exactly; reserved tickets never
  // used must remove just their own events.
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    const auto uniform = [&rng](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    std::vector<RandomEvent> events(1);
    std::vector<int> parents{0};
    for (int id = 1; id <= 1500; ++id) {
      RandomEvent event;
      const int roll = uniform(0, 9);
      event.placement = roll < 5   ? Placement::kDirect
                        : roll < 7 ? Placement::kLater
                        : roll < 8 ? Placement::kFlushed
                                   : Placement::kDropped;
      // A flushed ticket's helper runs at half its delay, strictly before it.
      event.delay = uniform(event.placement == Placement::kFlushed ? 1 : 0, 8) / 8.0;
      const int parent = id <= 40 ? 0 : parents[static_cast<std::size_t>(
                                            uniform(0, static_cast<int>(parents.size()) - 1))];
      events[static_cast<std::size_t>(parent)].children.push_back(id);
      if (event.placement != Placement::kDropped) parents.push_back(id);
      events.push_back(std::move(event));
    }
    auto expected = randomScheduleOrder(events, /*tickets=*/false);
    ASSERT_EQ(expected.size(), 1500u) << "seed " << seed;
    expected.erase(std::remove_if(expected.begin(), expected.end(),
                                  [&events](int id) {
                                    return events[static_cast<std::size_t>(id)].placement ==
                                           Placement::kDropped;
                                  }),
                   expected.end());
    EXPECT_EQ(randomScheduleOrder(events, /*tickets=*/true), expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace beesim::sim
