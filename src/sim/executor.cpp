#include "sim/executor.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::sim {
namespace {

// Spin iterations before parking on the condvar.  On a single-hardware-thread
// host spinning only steals cycles from whoever holds the core, so park
// immediately there.
const int kSpinLimit = std::thread::hardware_concurrency() > 1 ? 4096 : 0;

}  // namespace

thread_local NodeRuntime* Executor::current_ = nullptr;

Executor::Executor(std::uint64_t seed) : seed_(seed) {}

Executor::~Executor() { stop_workers(); }

void Executor::ShardIndex::add_shard() {
  const auto s = static_cast<std::uint32_t>(key_.size());
  key_.push_back(kTimeNever);
  pos_.push_back(0);
  heap_.push_back(0);
  place(heap_.size() - 1, s);
  sift_up(heap_.size() - 1);
}

void Executor::ShardIndex::set(std::uint32_t s, Time t) {
  const Time old = key_[s];
  key_[s] = t;
  if (t < old) {
    sift_up(pos_[s]);
  } else if (t > old) {
    sift_down(pos_[s]);
  }
}

void Executor::ShardIndex::sift_up(std::size_t i) {
  const std::uint32_t s = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(s, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, s);
}

void Executor::ShardIndex::sift_down(std::size_t i) {
  const std::uint32_t s = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], s)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, s);
}

void Executor::ShardIndex::collect_below(Time h, std::vector<std::uint32_t>& out) const {
  if (heap_.empty() || key_[heap_.front()] >= h) return;
  // Breadth-first over the heap, using `out` as the queue: a node keyed
  // >= h has no descendant keyed below h.
  std::size_t next = out.size();
  out.push_back(heap_.front());
  for (; next < out.size(); ++next) {
    const std::size_t child = 2 * static_cast<std::size_t>(pos_[out[next]]) + 1;
    for (std::size_t c = child; c < child + 2 && c < heap_.size(); ++c) {
      if (key_[heap_[c]] < h) out.push_back(heap_[c]);
    }
  }
}

NodeRuntime& Executor::add_shard() {
  const auto id = static_cast<std::uint32_t>(shards_.size());
  // splitmix-style per-shard stream derivation: equal executor seeds give
  // equal per-shard streams regardless of worker count.
  const std::uint64_t shard_seed = seed_ ^ (0x2545f4914f6cdd1dull * (id + 1));
  shards_.push_back(std::unique_ptr<NodeRuntime>(new NodeRuntime(this, id, shard_seed)));
  heads_.add_shard();
  globals_.add_shard();
  return *shards_.back();
}

void Executor::set_threads(unsigned n) {
  if (n == 0) n = 1;
  if (n == threads_) return;
  stop_workers();
  threads_ = n;
  if (n > 1) start_workers(n - 1);
}

std::size_t Executor::live_events() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->live();
  return n;
}

Time Executor::probe(std::uint32_t s, bool global) {
  ++head_probes_;
  NodeRuntime& rt = *shards_[s];
  if (global) return rt.global_head_time();
  const NodeRuntime::HeapEntry* h = rt.head();
  return h != nullptr ? h->time : kTimeNever;
}

Time Executor::validated_top(ShardIndex& index, bool global) {
  if (index.empty()) return kTimeNever;
  for (;;) {
    const std::uint32_t s = index.top();
    const Time key = index.key(s);
    if (key == kTimeNever) return kTimeNever;
    const Time t = probe(s, global);
    CMTOS_INVARIANT(t >= key, "sched.head_index");
    if (t == key) return t;
    // Stale-low key (the head was cancelled or fired): re-key and retry.
    // A shard still on top after re-keying holds the minimum just probed.
    index.set(s, t);
    if (index.top() == s) return t;
  }
}

std::size_t Executor::run(std::size_t limit) {
  // Global single-stepping in (time, shard, seq) order — the fully serial
  // mode behind Scheduler::run(limit) and unit tests.
  std::size_t fired = 0;
  while (fired < limit && min_head_time() != kTimeNever) {
    shards_[heads_.top()]->execute_head();
    ++fired;
  }
  return fired;
}

std::size_t Executor::run_until(Time t) {
  fired_ = 0;
  const Time bound = t >= kTimeNever ? kTimeNever : t + 1;  // events at exactly t run
  for (;;) {
    const Time tmin = min_head_time();
    if (tmin >= bound) break;
    Time horizon = tmin > kTimeNever - lookahead_ ? kTimeNever : tmin + lookahead_;
    if (horizon > bound) horizon = bound;
    // Tracing serialises everything: the tracer's sim-time stamp and event
    // stream are global, and a deterministic trace byte order is part of
    // the determinism contract (DESIGN.md §10).
    const bool serial = obs::Tracer::global().enabled() || min_global_time() < horizon;
    if (serial) {
      ++serial_rounds_;
      run_serial_round(horizon);
    } else {
      ++parallel_rounds_;
      run_parallel_round(horizon);
    }
  }
  for (auto& s : shards_) {
    if (s->now() < t) s->set_now(t);
  }
  return fired_;
}

void Executor::run_serial_round(Time horizon) {
  // Merged (time, shard, seq) order across all shards, including events
  // spawned mid-round below the horizon.  Cross-shard schedule calls insert
  // directly (no outbox) and lower the target's key — serial rounds are
  // serial at every thread count, so the insertion order is deterministic
  // by construction.
  while (min_head_time() < horizon) {
    shards_[heads_.top()]->execute_head();
    ++fired_;
  }
}

void Executor::run_parallel_round(Time horizon) {
  // Shards keyed below the horizon; a stale-low one among them finds its
  // head at or past the horizon and runs nothing.  Shard-id order makes
  // the barrier's log flush match a --threads 1 run.
  active_.clear();
  heads_.collect_below(horizon, active_);
  std::sort(active_.begin(), active_.end());
  parallel_phase_ = true;
  round_horizon_ = horizon;
  round_next_.store(0, std::memory_order_relaxed);
  round_fired_.store(0, std::memory_order_relaxed);
  round_probes_.store(0, std::memory_order_relaxed);
  // Small-round elision: waking the pool costs more than draining one or
  // two shards inline.  Which thread executes a shard never affects event
  // order (per-shard order plus the sorted outbox drain carry determinism),
  // and the active count is pure queue state, so this stays reproducible.
  if (!workers_.empty() && active_.size() > 2) {
    round_active_.store(static_cast<unsigned>(workers_.size()), std::memory_order_relaxed);
    round_gen_.fetch_add(1, std::memory_order_release);
    {
      // Empty critical section: a worker is either before its predicate
      // check (and will observe the new generation) or parked inside wait
      // (and will get the notify) — never between the two.
      const MutexLock lk(mu_);
    }
    cv_start_.notify_all();
    work_round();  // the calling thread participates
    for (int spin = 0; round_active_.load(std::memory_order_acquire) != 0; ++spin) {
      if (spin < kSpinLimit) {
        std::this_thread::yield();
        continue;
      }
      const MutexLock lk(mu_);
      cv_done_.wait(mu_, [this] { return round_active_.load(std::memory_order_acquire) == 0; });
      break;
    }
  } else {
    work_round();
  }
  parallel_phase_ = false;
  fired_ += round_fired_.load(std::memory_order_relaxed);
  head_probes_ += round_probes_.load(std::memory_order_relaxed);
  // Only the shards that ran can hold parked log lines, outbox entries or
  // index-skipped inserts.  Re-keying them exactly keeps stale keys from
  // accumulating below later horizons.
  for (const std::uint32_t i : active_) {
    flush_log_buffer(shards_[i]->log_buf_);
    heads_.set(i, probe(i, false));
    globals_.set(i, probe(i, true));
  }
  drain_outboxes();
}

void Executor::work_round() {
  const auto n = static_cast<std::uint32_t>(active_.size());
  std::size_t fired = 0;
  std::uint64_t probes = 0;
  for (;;) {
    const std::uint32_t i = round_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    NodeRuntime& s = *shards_[active_[i]];
    set_thread_log_buffer(&s.log_buf_);
    for (;;) {
      ++probes;
      const NodeRuntime::HeapEntry* h = s.head();
      if (h == nullptr || h->time >= round_horizon_) break;
      // A global event spawned mid-round (defer_global) parks the shard:
      // the next round will be serial and run it in merged order.
      if (s.slots_[h->slot].global) break;
      s.execute_head();
      ++fired;
    }
  }
  set_thread_log_buffer(nullptr);
  round_fired_.fetch_add(fired, std::memory_order_relaxed);
  round_probes_.fetch_add(probes, std::memory_order_relaxed);
}

void Executor::drain_outboxes() {
  // Only shards that ran in the parallel round hold outbox entries.  The
  // entries stay in their outboxes; drain_ orders pointers to them.
  for (const std::uint32_t i : active_) {
    for (auto& d : shards_[i]->outbox_) drain_.push_back(&d);
  }
  if (drain_.empty()) return;
  std::sort(drain_.begin(), drain_.end(),
            [](const NodeRuntime::Deferred* a, const NodeRuntime::Deferred* b) {
              if (a->src_time != b->src_time) return a->src_time < b->src_time;
              if (a->src_shard != b->src_shard) return a->src_shard < b->src_shard;
              if (a->src_seq != b->src_seq) return a->src_seq < b->src_seq;
              return a->idx < b->idx;
            });
  for (NodeRuntime::Deferred* d : drain_) {
    // With a sound lookahead the delivery lands at or after the target's
    // clock; the clamp keeps a mid-run lookahead shrink deterministic
    // rather than time-travelling.
    const Time t = std::max(d->time, d->target->now());
    (void)d->target->insert_direct(t, std::move(d->fn), d->global);
  }
  drain_.clear();  // keeps its capacity for the next round
  for (const std::uint32_t i : active_) shards_[i]->outbox_.clear();
}

void Executor::start_workers(unsigned n) {
  shutdown_.store(false, std::memory_order_relaxed);
  const std::uint64_t start_gen = round_gen_.load(std::memory_order_relaxed);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, start_gen] {
      std::uint64_t seen = start_gen;
      for (;;) {
        // Spin briefly before parking: consecutive parallel rounds arrive
        // back-to-back and a futex sleep/wake costs more than the round.
        int spin = 0;
        std::uint64_t gen;
        while ((gen = round_gen_.load(std::memory_order_acquire)) == seen &&
               !shutdown_.load(std::memory_order_acquire)) {
          if (++spin < kSpinLimit) {
            std::this_thread::yield();
            continue;
          }
          const MutexLock lk(mu_);
          cv_start_.wait(mu_, [&] {
            return shutdown_.load(std::memory_order_acquire) ||
                   round_gen_.load(std::memory_order_acquire) != seen;
          });
          break;
        }
        if (shutdown_.load(std::memory_order_acquire)) return;
        seen = round_gen_.load(std::memory_order_acquire);
        work_round();
        if (round_active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          {
            const MutexLock lk(mu_);
          }
          cv_done_.notify_all();
        }
      }
    });
  }
}

void Executor::stop_workers() {
  if (workers_.empty()) return;
  shutdown_.store(true, std::memory_order_release);
  {
    const MutexLock lk(mu_);
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  shutdown_.store(false, std::memory_order_relaxed);
  round_active_.store(0, std::memory_order_relaxed);
}

}  // namespace cmtos::sim
