// Unit and property tests for the sharded executor: merged event order,
// exactly-once delivery, --threads determinism, the per-event cost of the
// shard-head index, and the per-shard footprint.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "sim/executor.h"
#include "util/rng.h"

namespace cmtos::sim {
namespace {

constexpr Duration kLookahead = kMillisecond;
constexpr Duration kGrain = 250 * kMicrosecond;  // coarse times make ties common
constexpr Duration kFarFuture = 5LL * 3600 * kSecond;  // a long idle gap past kStop

// Randomised multi-shard world with a model of every live event.  Each
// shard starts one self-perpetuating chain; each chain event continues
// locally or on another shard, as a local or global event, and now and
// then spawns leaves: cancellable timers (some far-future), cancels of
// earlier ones, and defer_global escalations.  Every firing is checked
// against the model:
//   * a shard fires its live events in (time, seq) order;
//   * outside parallel rounds (serial rounds, run(limit)) the fired event
//     is the (time, shard, seq) minimum over all shards.
// seq is the executor's; the model knows it for direct inserts (per-shard
// call order) and leaves barrier-drained cross-shard inserts unordered
// among equal-time events.
class World {
 public:
  World(std::uint32_t shards, std::uint64_t seed, Time stop)
      : exec_(seed), stop_(stop), start_rng_(seed ^ 0x5eedull) {
    exec_.set_lookahead(kLookahead);
    for (std::uint32_t i = 0; i < shards; ++i) exec_.add_shard();
    live_.resize(shards);
    next_order_.resize(shards);
    next_id_.resize(shards + 1);
    timers_.resize(shards);
    per_shard_log_.resize(shards);
  }

  Executor& exec() { return exec_; }

  void start() {
    for (std::uint32_t s = 0; s < exec_.shard_count(); ++s) {
      const Time t = start_rng_.uniform(0, 8) * kGrain;
      (void)schedule(exec_.shard(s), t, start_rng_.uniform(0, 3) == 0, true);
    }
  }

  /// Exactly-once: every scheduled event fired once unless cancelled, and
  /// nothing is left queued.
  void expect_drained() const {
    EXPECT_EQ(exec_.live_events(), 0u);
    for (const auto& shard : live_) EXPECT_TRUE(shard.empty());
    for (const auto& [id, n] : fired_count_) {
      EXPECT_EQ(n, cancelled_.count(id) != 0 ? 0 : 1) << "event " << id;
    }
  }

  std::size_t fired() const { return fired_; }
  std::size_t cancelled() const { return cancelled_.size(); }
  std::size_t parallel_fired() const { return parallel_fired_; }
  const std::vector<std::uint64_t>& serial_log() const { return serial_log_; }
  const std::vector<std::vector<std::uint64_t>>& per_shard_log() const {
    return per_shard_log_;
  }

 private:
  // Model entry: (time, per-shard direct-insert order, id).  kDeferred
  // sorts after every direct insert of the same time.
  using Key = std::tuple<Time, std::uint64_t, std::uint64_t>;
  static constexpr std::uint64_t kDeferred = UINT64_MAX;

  struct Timer {
    EventHandle handle;
    Key key;
  };

  /// Records an event about to be inserted on `dst` at `t`.  Caller holds mu_.
  Key record(NodeRuntime& dst, Time t) {
    NodeRuntime* src = Executor::current();
    const std::uint32_t from = src != nullptr ? src->shard() : exec_.shard_count();
    const bool direct = !(exec_.in_parallel_round() && src != &dst);
    const Key key{t, direct ? next_order_[dst.shard()]++ : kDeferred,
                  (static_cast<std::uint64_t>(from + 1) << 32) | ++next_id_[from]};
    live_[dst.shard()].insert(key);
    fired_count_[std::get<2>(key)] = 0;
    return key;
  }

  Timer schedule(NodeRuntime& dst, Time t, bool global, bool chain) {
    Key key;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      key = record(dst, t);
    }
    EventFn fn = [this, key, chain] { on_fire(key, chain); };
    return {global ? dst.at_global(t, std::move(fn)) : dst.at(t, std::move(fn)), key};
  }

  void on_fire(const Key& key, bool chain) {
    NodeRuntime& rt = *Executor::current();
    const std::uint32_t s = rt.shard();
    const auto [t, order, id] = key;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      ++fired_;
      ++fired_count_[id];
      EXPECT_EQ(rt.now(), t);
      auto& mine = live_[s];
      ASSERT_FALSE(mine.empty());
      const Key& first = *mine.begin();
      EXPECT_EQ(std::get<0>(first), t) << "shard " << s << " fired out of time order";
      if (order != kDeferred) {
        EXPECT_EQ(std::get<2>(first), id) << "shard " << s << " fired out of seq order";
      }
      if (exec_.in_parallel_round()) {
        ++parallel_fired_;
      } else {
        for (std::uint32_t o = 0; o < live_.size(); ++o) {
          if (o == s || live_[o].empty()) continue;
          const Time head = std::get<0>(*live_[o].begin());
          EXPECT_TRUE(head > t || (head == t && o > s))
              << "merged order: shard " << o << " held " << head << " while shard " << s
              << " fired " << t;
        }
        serial_log_.push_back(id);
      }
      per_shard_log_[s].push_back(id);
      mine.erase(key);
    }
    if (chain && rt.now() < stop_) spawn(rt);
  }

  void spawn(NodeRuntime& rt) {
    Rng& r = rt.rng();
    const Time now = rt.now();
    const auto delay = [&r] { return r.uniform(0, 8) * kGrain; };
    const auto other = [&]() -> NodeRuntime& {
      const auto n = static_cast<std::int64_t>(exec_.shard_count());
      return exec_.shard(static_cast<std::uint32_t>(r.uniform(0, n - 1)));
    };
    // The chain continues locally or on another shard at least a lookahead
    // out: through the outbox in a parallel round, as a direct insert that
    // may land below the target's indexed head in a serial one.
    const bool global = r.uniform(0, 199) == 0;  // most rounds stay parallel
    if (r.uniform(0, 1) == 0) {
      (void)schedule(rt, now + delay(), global, true);
    } else {
      (void)schedule(other(), now + kLookahead + delay(), global, true);
    }

    auto& timers = timers_[rt.shard()];
    if (r.uniform(0, 9) == 0) {
      const Time t = r.uniform(0, 19) == 0 ? now + kFarFuture : now + delay();
      timers.push_back(schedule(rt, t, false, false));
    }
    if (!timers.empty() && r.uniform(0, 7) == 0) {
      const auto i = static_cast<std::size_t>(
          r.uniform(0, static_cast<std::int64_t>(timers.size()) - 1));
      if (timers[i].handle.pending()) {
        timers[i].handle.cancel();
        const std::lock_guard<std::mutex> lk(mu_);
        live_[rt.shard()].erase(timers[i].key);
        cancelled_.insert(std::get<2>(timers[i].key));
      }
      timers[i] = timers.back();
      timers.pop_back();
    }
    if (r.uniform(0, 399) == 0) {
      Key key;
      {
        const std::lock_guard<std::mutex> lk(mu_);
        key = record(rt, now);
      }
      rt.defer_global([this, key] { on_fire(key, false); });
    }
  }

  Executor exec_;
  Time stop_;
  Rng start_rng_;
  std::mutex mu_;
  std::vector<std::set<Key>> live_;
  std::vector<std::uint64_t> next_order_;
  std::vector<std::uint64_t> next_id_;
  std::vector<std::vector<Timer>> timers_;  // cancellable leaves, per shard
  std::map<std::uint64_t, int> fired_count_;
  std::set<std::uint64_t> cancelled_;
  std::size_t fired_ = 0;
  std::size_t parallel_fired_ = 0;
  std::vector<std::uint64_t> serial_log_;
  std::vector<std::vector<std::uint64_t>> per_shard_log_;
};

constexpr std::uint32_t kShards = 72;
constexpr Time kStop = 300 * kMillisecond;
constexpr Time kEnd = kFarFuture + kSecond;

TEST(ExecutorProperty, RoundsFireEveryEventOnceInOrderAtAnyThreadCount) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(seed);
    World one(kShards, seed, kStop);
    one.start();
    one.exec().run_until(kEnd);
    one.expect_drained();
    EXPECT_GT(one.parallel_fired(), 0u);
    EXPECT_GT(one.serial_log().size(), 0u);
    EXPECT_GT(one.cancelled(), 0u);

    World four(kShards, seed, kStop);
    four.exec().set_threads(4);
    four.start();
    four.exec().run_until(kEnd);
    four.expect_drained();

    EXPECT_EQ(one.fired(), four.fired());
    EXPECT_EQ(one.serial_log(), four.serial_log());
    EXPECT_EQ(one.per_shard_log(), four.per_shard_log());
    EXPECT_EQ(one.exec().serial_rounds(), four.exec().serial_rounds());
    EXPECT_EQ(one.exec().parallel_rounds(), four.exec().parallel_rounds());
    EXPECT_EQ(one.exec().head_probes(), four.exec().head_probes());
  }
}

TEST(ExecutorProperty, RunLimitFiresInMergedOrder) {
  World w(kShards, 7, kStop);
  w.start();
  std::size_t total = 0;
  for (std::size_t n; (n = w.exec().run(997)) > 0;) total += n;
  w.expect_drained();
  EXPECT_EQ(total, w.fired());
  EXPECT_EQ(w.serial_log().size(), w.fired());
}

// Three shards; a serial round's global event on shard 1 inserts onto
// shard 2 below shard 2's indexed head, and a cancel leaves shard 0's key
// stale.  Both must come out in merged (time, shard) order.
TEST(Executor, SerialCrossShardInsertBelowIndexedHeadRunsFirst) {
  for (const bool use_run : {false, true}) {
    SCOPED_TRACE(use_run);
    Executor exec;
    exec.set_lookahead(kLookahead);
    NodeRuntime& s0 = exec.add_shard();
    NodeRuntime& s1 = exec.add_shard();
    NodeRuntime& s2 = exec.add_shard();
    std::vector<int> order;
    EventHandle stale = s0.at(40, [&] { order.push_back(-1); });
    s0.at(80, [&] { order.push_back(80); });
    s2.at(100, [&] { order.push_back(100); });
    s1.at_global(50, [&] {
      order.push_back(50);
      s2.at(60, [&] { order.push_back(60); });
      s0.at(60, [&] { order.push_back(600); });  // same time, lower shard
    });
    stale.cancel();
    if (use_run) {
      EXPECT_EQ(exec.run(100), 5u);
    } else {
      EXPECT_EQ(exec.run_until(1000), 5u);
      EXPECT_EQ(exec.serial_rounds(), 1u);
    }
    EXPECT_EQ(order, (std::vector<int>{50, 600, 60, 80, 100}));
  }
}

// Cost gate: 256 shards, two of them busy; every fourth tick pings one of
// the others in turn, so over the run every shard wakes and goes idle
// again.  T_min, the global lookup and a round's shard list must cost
// O(log S) or O(shards run), never a scan of all 256 (a scan reads >= 256
// heads per event here).
TEST(ExecutorCost, SparseWorldProbesStayBoundedPerEvent) {
  constexpr std::uint32_t kWide = 256;
  Executor exec;
  exec.set_lookahead(kLookahead);
  for (std::uint32_t i = 0; i < kWide; ++i) exec.add_shard();
  NodeRuntime& a = exec.shard(17);
  NodeRuntime& b = exec.shard(200);
  struct Tick {
    Executor* exec;
    NodeRuntime* self;
    std::uint32_t n = 0;
    void operator()() {
      ++n;
      if (n % 4 == 0) {
        NodeRuntime& peer = exec->shard((self->shard() + 37 * n) % kWide);
        peer.at(self->now() + kLookahead, [] {});
      }
      if (n % 64 == 0) self->defer_global([] {});
      Tick next = *this;
      self->after(kGrain, next);
    }
  };
  a.after(0, Tick{&exec, &a});
  b.after(kGrain / 2, Tick{&exec, &b});

  const std::size_t fired = exec.run_until(kSecond);
  EXPECT_GT(exec.parallel_rounds(), 0u);
  EXPECT_GT(exec.serial_rounds(), 0u);
  EXPECT_LE(exec.head_probes(), 8 * fired) << exec.head_probes() << " probes / " << fired;

  const std::uint64_t before = exec.head_probes();
  const std::size_t stepped = exec.run(5000);
  EXPECT_EQ(stepped, 5000u);
  EXPECT_LE(exec.head_probes() - before, 8 * stepped);
}

// Footprint gate: a city-scale world runs one NodeRuntime per node, so the
// shard itself stays a handful of pointers and counters.  Queue storage
// belongs in heap vectors that grow with the events actually pending, not
// in inline per-shard tables (a 256-bucket inline array is ~8 KiB a node).
TEST(ExecutorCost, NodeRuntimeStaysSmall) {
  EXPECT_LE(sizeof(NodeRuntime), 512u) << sizeof(NodeRuntime) << " B per shard";
}

}  // namespace
}  // namespace cmtos::sim
