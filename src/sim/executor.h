// cmtos/sim/executor.h
//
// Conservative parallel discrete-event executor over node shards.
//
// Time advances in lock-stepped rounds.  Each round:
//   1. T_min  = earliest pending event time across all shards.
//   2. H      = min(T_min + L, bound), where L is the lookahead — the
//      minimum in-flight link latency reported by the network.  Every
//      cross-shard delivery scheduled by an event at time t lands at
//      >= t + L >= H, so no event executed in this round can affect
//      another shard *within* the round.
//   3. Classify: if any shard holds a *global* event earlier than H (or
//      tracing is enabled), the round is serial — events across all shards
//      run one at a time in (time, shard, seq) order and may touch shared
//      state.  Otherwise the round is parallel: each shard independently
//      drains its own events below H in (time, seq) order, stopping early
//      if its head becomes a global event (which then forces the next
//      round serial).
//   4. Barrier: schedule calls that targeted another shard during a
//      parallel round were buffered in per-shard outboxes; they are applied
//      in deterministic (source time, source shard, source seq, index)
//      order.  Log lines emitted during the round were parked per shard
//      too and are written out in shard order.
//
// Finding T_min, the earliest global event and a round's runnable shards
// never scans the shards: the executor keeps an addressable min-heap of
// shard heads keyed by (time, shard) (and a second one over global heads).
// A key may sit below its shard's true head — a cancel or a fired event
// raised the head — but never above it; the top is validated against the
// shard before use.  Every operation costs O(log S), or O(k) for the k
// shards a parallel round runs (DESIGN.md §10).
//
// The same classification and execution rules run at every worker count:
// at --threads 1 a "parallel" round simply visits the shards sequentially.
// Round structure is a pure function of queue state, so N=1 and N=8
// produce byte-identical event orders — N=1 is the determinism oracle.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/node_runtime.h"
#include "util/contract.h"
#include "util/sync.h"
#include "util/time.h"

namespace cmtos::sim {

class Executor {
 public:
  explicit Executor(std::uint64_t seed = 0x9e3779b97f4a7c15ull);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Creates the next shard (0 is the control shard, created by the
  /// Scheduler facade; the network allocates one per node).
  NodeRuntime& add_shard();
  NodeRuntime& shard(std::uint32_t i) { return *shards_[i]; }
  std::uint32_t shard_count() const { return static_cast<std::uint32_t>(shards_.size()); }

  /// Worker count for parallel rounds (1 = run everything on the calling
  /// thread).  May be called between runs, not from inside an event.
  void set_threads(unsigned n);
  unsigned threads() const { return threads_; }

  /// Lookahead: lower bound on cross-shard delivery latency.  The network
  /// keeps this equal to the minimum link propagation delay and must
  /// refresh it when links are added or retuned mid-run.  Clamped to >= 1.
  void set_lookahead(Duration l) { lookahead_ = l < 1 ? 1 : l; }
  Duration lookahead() const { return lookahead_; }

  /// Runs events in global (time, shard, seq) order until all queues are
  /// empty or `limit` events have fired.  Always serial.  Returns events
  /// fired.
  std::size_t run(std::size_t limit);

  /// Runs conservative rounds until every event with time <= t has fired,
  /// then advances every shard's clock to exactly t.  Returns events fired.
  std::size_t run_until(Time t);

  /// The runtime whose event is executing on this thread, or nullptr
  /// outside event context.  Scheduling against a different runtime during
  /// a parallel round is what routes through the outbox.
  static NodeRuntime* current() { return current_; }

  /// True while a parallel round is executing (cross-shard schedule calls
  /// must detour through the outbox instead of touching foreign heaps).
  bool in_parallel_round() const { return parallel_phase_; }

  /// True while this thread runs an event of a parallel round.  The
  /// CMTOS_CONTROL_PLANE classes assert it is false (CMTOS_ASSERT_SERIAL)
  /// wherever they touch state shared across shards.
  static bool in_parallel_event() {
    return current_ != nullptr && current_->executor().in_parallel_round();
  }

  /// Hands `fn` to a serial round: from inside an event it is deferred as
  /// a global event at the current time (merged in deterministic order at
  /// every worker count); outside event context it runs inline.
  static void run_serial(EventFn fn) {
    if (current_ != nullptr) {
      current_->defer_global(std::move(fn));
    } else {
      fn();
    }
  }

  /// Live events across all shards.
  std::size_t live_events() const;

  /// Round-classification counters since construction (observability: a
  /// workload that should scale but doesn't usually shows up here as an
  /// unexpected serial-round majority).
  std::uint64_t serial_rounds() const { return serial_rounds_; }
  std::uint64_t parallel_rounds() const { return parallel_rounds_; }

  /// Shard-head lookups (NodeRuntime head or global-head probes) made by
  /// the round machinery since construction.  Deterministic at every
  /// worker count; a cost gate: a scan over all shards per event or round
  /// shows up here as probes growing with the shard count.
  std::uint64_t head_probes() const { return head_probes_; }

 private:
  friend class NodeRuntime;

  /// Addressable binary min-heap over shard ids keyed by (time, shard id):
  /// one slot per shard, so re-keying a shard is O(log S) and stale keys
  /// never pile up as duplicate entries.
  class ShardIndex {
   public:
    /// Appends the next shard id, keyed kTimeNever.
    void add_shard();
    bool empty() const { return heap_.empty(); }
    std::uint32_t top() const { return heap_.front(); }
    Time key(std::uint32_t s) const { return key_[s]; }
    /// Re-keys shard `s` to `t` (earlier or later) and restores heap order.
    void set(std::uint32_t s, Time t);
    /// Lowers shard `s`'s key to `t` if `t` is earlier.
    void lower(std::uint32_t s, Time t) {
      if (t < key_[s]) set(s, t);
    }
    /// Appends every shard keyed below `h` to `out`, visiting only those
    /// shards and their direct children (heap order bounds the walk).
    void collect_below(Time h, std::vector<std::uint32_t>& out) const;

   private:
    bool before(std::uint32_t a, std::uint32_t b) const {
      return key_[a] < key_[b] || (key_[a] == key_[b] && a < b);
    }
    void place(std::size_t i, std::uint32_t s) {
      heap_[i] = s;
      pos_[s] = static_cast<std::uint32_t>(i);
    }
    void sift_up(std::size_t i);
    void sift_down(std::size_t i);

    std::vector<std::uint32_t> heap_;  // shard ids in heap order
    std::vector<std::uint32_t> pos_;   // shard id -> index in heap_
    std::vector<Time> key_;            // shard id -> key
  };

  /// Keeps the indexes covering an event inserted on `shard` at `t`
  /// outside a parallel round (NodeRuntime::insert_direct).
  void index_insert(std::uint32_t shard, Time t, bool global) {
    heads_.lower(shard, t);
    if (global) globals_.lower(shard, t);
  }
  /// Counted lookup of shard `s`'s head time (global head if `global`).
  Time probe(std::uint32_t s, bool global);
  /// Validates the top of `index` against its shard, re-keying stale
  /// shards, and returns the true minimum (kTimeNever when idle).
  /// Afterwards `index.top()` is the shard holding it.
  Time validated_top(ShardIndex& index, bool global);
  /// Earliest pending event time across shards, kTimeNever when idle.
  Time min_head_time() { return validated_top(heads_, false); }
  /// Earliest pending *global* event time across shards.
  Time min_global_time() { return validated_top(globals_, true); }
  void run_serial_round(Time horizon);
  void run_parallel_round(Time horizon);
  void drain_outboxes();

  void start_workers(unsigned n);
  void stop_workers();
  /// Executes active_ shards (claimed via round_next_) below round_horizon_.
  void work_round();

  static thread_local NodeRuntime* current_;

  std::uint64_t seed_;
  Duration lookahead_ = 1;
  unsigned threads_ = 1;
  bool parallel_phase_ = false;
  std::size_t fired_ = 0;  // events fired in the current run_* call
  std::uint64_t serial_rounds_ = 0;
  std::uint64_t parallel_rounds_ = 0;
  std::uint64_t head_probes_ = 0;
  std::vector<std::unique_ptr<NodeRuntime>> shards_;
  // Shard-head index and its global-event twin.  Invariant: a shard with
  // a live (global) event is keyed no later than that event.  Inserts keep
  // it through index_insert, except inside a parallel round (the inserting
  // worker must not write shared state), where the round's barrier re-keys
  // the shards that ran.
  ShardIndex heads_;
  ShardIndex globals_;
  // The current parallel round's shards (keyed below the horizon), in
  // shard-id order; workers claim from it through round_next_.
  std::vector<std::uint32_t> active_;
  std::vector<NodeRuntime::Deferred*> drain_;  // drain_outboxes workspace

  // Worker pool (threads_ - 1 workers; the calling thread participates).
  // Handoff is spin-then-block: rounds are often far shorter than a futex
  // wake, so workers briefly spin on round_gen_ before parking on the
  // condvar, and the coordinator spins on round_active_ before parking on
  // cv_done_.  The mutex only guards the park/notify edge; all round state
  // is published through the release increment of round_gen_.
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  std::atomic<std::uint64_t> round_gen_{0};  // incremented to launch a round
  std::atomic<unsigned> round_active_{0};    // workers still inside the round
  std::atomic<bool> shutdown_{false};
  Time round_horizon_ = 0;
  std::atomic<std::uint32_t> round_next_{0};  // claim cursor into active_
  std::atomic<std::size_t> round_fired_{0};
  std::atomic<std::uint64_t> round_probes_{0};
};

}  // namespace cmtos::sim

/// Control-plane entry points touching state shared across shards: must not
/// run inside a parallel round.  Live in release builds, and round
/// classification does not depend on the worker count, so a violation
/// shows at --threads 1 too.
#define CMTOS_ASSERT_SERIAL()                                    \
  CMTOS_ASSERT(!::cmtos::sim::Executor::in_parallel_event(),     \
               "control_plane.parallel_round")
