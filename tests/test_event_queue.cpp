// Per-shard event queue tests (sim/node_runtime's (time, seq) heap):
// ordering across horizons from milliseconds to hours, sub-millisecond ties,
// cancel/re-arm at the same time, stale-handle ABA, mass cancel on
// crash-style teardown (the compaction path), and a differential against a
// reference model over seeded random schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/scheduler.h"
#include "util/time.h"

namespace cmtos::sim {
namespace {

TEST(EventQueue, FiresAcrossHorizonsInOrder) {
  Scheduler s;
  std::vector<int> order;
  // Horizons from milliseconds to hours, each ~30-60x the previous.
  s.at(5 * kMillisecond, [&] { order.push_back(0); });
  s.at(3 * kSecond, [&] { order.push_back(1); });
  s.at(100 * kSecond, [&] { order.push_back(2); });
  s.at(10000 * kSecond, [&] { order.push_back(3); });
  s.at(20000 * kSecond, [&] { order.push_back(4); });
  EXPECT_EQ(s.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.now(), 20000 * kSecond);
}

TEST(EventQueue, DistantNeighboursFireInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  // Three events minutes out and within a second of each other, armed out
  // of time order: the middle one must fire between the others, not early
  // and not lost.
  s.at(260 * kSecond, [&] { order.push_back(1); });
  s.at(261 * kSecond, [&] { order.push_back(2); });
  s.at(260 * kSecond + 500 * kMillisecond, [&] { order.push_back(3); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(s.now(), 261 * kSecond);
}

TEST(EventQueue, SubMillisecondTimesKeepExactOrder) {
  Scheduler s;
  std::vector<int> order;
  // Within one millisecond, different nanosecond times: ordering is exact
  // to the nanosecond, and equal times fire in insertion order.
  const Time base = 100 * kSecond;
  s.at(base + 900'000, [&] { order.push_back(2); });
  s.at(base + 100'000, [&] { order.push_back(1); });
  s.at(base + 900'000, [&] { order.push_back(3); });  // tie -> insertion order
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelAndReArmAtSameTime) {
  Scheduler s;
  std::vector<int> order;
  const Time t = 50 * kSecond;
  EventHandle victim;  // armed below, after the armer, so it has a later seq
  s.at(t, [&] {
    // Runs at the same time as `victim` (earlier seq): cancelling and
    // re-arming at the current time must take effect at that time.
    victim.cancel();
    s.at(t, [&] { order.push_back(2); });
    order.push_back(1);
  });
  victim = s.at(t, [&] { order.push_back(99); });
  EXPECT_EQ(s.run(), 2u);  // armer + re-armed; the cancelled victim never fires
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(victim.pending());
}

TEST(EventQueue, CancelledThenReArmedHandleDoesNotAliasOldSlot) {
  Scheduler s;
  int fired = 0;
  EventHandle h1 = s.at(10 * kSecond, [&] { fired += 1; });
  h1.cancel();
  // The recycled slot gets a new generation; the stale handle must stay inert.
  EventHandle h2 = s.at(10 * kSecond, [&] { fired += 10; });
  h1.cancel();  // no-op: must not kill h2
  EXPECT_TRUE(h2.pending());
  s.run();
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, MassCancelOnCrashStyleTeardown) {
  Scheduler s;
  int fired = 0;
  std::mt19937_64 rng(7);
  std::vector<EventHandle> handles;
  // 10k timers spread over ~8 h, as a node crash would leave behind
  // (keepalives, retransmits, regulation slots).
  for (int i = 0; i < 10000; ++i) {
    const Time t = static_cast<Time>(rng() % (30000ull * kSecond)) + 1;
    handles.push_back(s.at(t, [&] { ++fired; }));
  }
  EXPECT_EQ(s.pending(), 10000u);
  for (EventHandle& h : handles) h.cancel();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.run(), 0u);
  EXPECT_EQ(fired, 0);
  // The structure stays usable after the mass cancel (compaction path).
  std::vector<int> order;
  s.at(s.now() + 5 * kSecond, [&] { order.push_back(1); });
  s.at(s.now() + 300 * kSecond, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, DifferentialVsReferenceModelOverSeededSchedules) {
  // Reference model: events fire in exact (time, seq) order, where seq is
  // the schedule-call order; cancelled events never fire.  Batches separated
  // by run_until checkpoints interleave arming, cancelling and firing.
  for (const std::uint64_t seed : {1ull, 7ull, 20260807ull}) {
    Scheduler s;
    std::mt19937_64 rng(seed);

    struct Ref {
      Time time = 0;
      std::uint64_t seq = 0;
      int id = 0;
    };
    std::vector<Ref> ref;          // live reference entries (not yet fired)
    std::vector<int> fired;        // actual firing order (by id)
    std::vector<int> expect;       // reference firing order (by id)
    std::vector<std::pair<int, EventHandle>> handles;
    std::uint64_t seq = 0;
    int next_id = 0;

    auto checkpoint = [&](Time until) {
      s.run_until(until);
      // Everything with time <= until fires, in (time, seq) order.
      std::stable_sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
      });
      auto it = ref.begin();
      for (; it != ref.end() && it->time <= until; ++it) expect.push_back(it->id);
      ref.erase(ref.begin(), it);
    };

    for (int batch = 0; batch < 6; ++batch) {
      const Time now = s.now();
      for (int i = 0; i < 300; ++i) {
        // Delays from sub-millisecond to hours, with deliberate same-time
        // collisions to exercise seq tie-breaks.
        Time d = 0;
        switch (rng() % 5) {
          case 0: d = static_cast<Time>(rng() % (2 * kMillisecond)); break;
          case 1: d = static_cast<Time>(rng() % (60 * kMillisecond)); break;
          case 2: d = static_cast<Time>(rng() % (4 * kSecond)); break;
          case 3: d = static_cast<Time>(rng() % (300 * kSecond)); break;
          default: d = static_cast<Time>(rng() % (20000ull * kSecond)); break;
        }
        if (rng() % 8 == 0) d = (d / kSecond) * kSecond;  // same-time collision
        const int id = next_id++;
        handles.emplace_back(id, s.at(now + d, [&fired, id] { fired.push_back(id); }));
        ref.push_back({now + d, seq++, id});
      }
      // Cancel a random slice of still-pending events.
      for (int i = 0; i < 60; ++i) {
        const std::size_t pick = rng() % handles.size();
        const int id = handles[pick].first;
        handles[pick].second.cancel();
        std::erase_if(ref, [id](const Ref& r) { return r.id == id; });
      }
      checkpoint(s.now() + static_cast<Time>(rng() % (500 * kSecond)));
    }
    checkpoint(40000 * kSecond);
    EXPECT_TRUE(ref.empty()) << "seed " << seed;
    EXPECT_EQ(fired, expect) << "seed " << seed;
    EXPECT_EQ(s.pending(), 0u);
  }
}

TEST(EventQueue, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    Scheduler s;
    std::mt19937_64 rng(99);
    std::vector<int> order;
    for (int i = 0; i < 2000; ++i) {
      const Time t = static_cast<Time>(rng() % (25000ull * kSecond)) + 1;
      const int id = i;
      EventHandle h = s.at(t, [&order, id] { order.push_back(id); });
      if (rng() % 4 == 0) h.cancel();
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace cmtos::sim
