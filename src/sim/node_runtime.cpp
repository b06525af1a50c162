#include "sim/node_runtime.h"

#include <algorithm>

#include "obs/trace.h"
#include "sim/executor.h"
#include "util/contract.h"

namespace cmtos::sim {

void EventHandle::cancel() {
  if (rt_ == nullptr || slot_ >= rt_->slots_.size()) return;
  NodeRuntime::Slot& s = rt_->slots_[slot_];
  if (s.gen != gen_ || !s.live) return;  // already fired, cancelled or reused
  rt_->free_slot(slot_);
  rt_->live_.fetch_sub(1, std::memory_order_relaxed);
  ++rt_->dead_entries_;
  rt_->maybe_compact();
}

bool EventHandle::pending() const {
  if (rt_ == nullptr || slot_ >= rt_->slots_.size()) return false;
  const NodeRuntime::Slot& s = rt_->slots_[slot_];
  return s.gen == gen_ && s.live;
}

EventHandle NodeRuntime::schedule(Time t, EventFn fn, bool global) {
  NodeRuntime* cur = Executor::current();
  if (cur != nullptr && cur != this && cur->exec_ == exec_ && exec_->in_parallel_round()) {
    // Cross-shard schedule during a parallel round: buffer on the
    // *scheduling* shard; the executor applies outboxes at the barrier in
    // deterministic order.  The returned handle is inert — cross-shard
    // schedules are deliveries, which nothing cancels.
    cur->push_outbox(*this, t, std::move(fn), global);
    return {};
  }
  return insert_direct(t, std::move(fn), global);
}

EventHandle NodeRuntime::insert_direct(Time t, EventFn fn, bool global) {
  const Time n = now();
  CMTOS_ASSERT(t >= n, "sched.past_event");  // clamped below
  if (t < n) t = n;

  std::uint32_t idx;
  if (free_head_ != kNoFreeSlot) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.live = true;
  s.global = global;

  const HeapEntry e{t, next_seq_++, idx, s.gen};
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (global) {
    // Exact mirror for min_global_time().
    global_heap_.push_back(e);
    std::push_heap(global_heap_.begin(), global_heap_.end(), Later{});
  }
  // The executor's shard-head index is shared across shards: a parallel
  // round's worker leaves it alone and the round barrier re-keys this shard.
  if (!exec_->in_parallel_round()) exec_->index_insert(shard_, t, global);
  live_.fetch_add(1, std::memory_order_relaxed);
  return EventHandle(this, idx, s.gen);
}

void NodeRuntime::push_outbox(NodeRuntime& target, Time t, EventFn fn, bool global) {
  Deferred d;
  d.src_time = now();
  d.src_shard = shard_;
  d.src_seq = executing_seq_;
  d.idx = static_cast<std::uint32_t>(outbox_.size());
  d.target = &target;
  d.time = t;
  d.fn = std::move(fn);
  d.global = global;
  outbox_.push_back(std::move(d));
}

const NodeRuntime::HeapEntry* NodeRuntime::peek(std::vector<HeapEntry>& heap) {
  while (!heap.empty()) {
    const HeapEntry& top = heap.front();
    const Slot& s = slots_[top.slot];
    if (s.live && s.gen == top.gen) return &top;
    std::pop_heap(heap.begin(), heap.end(), Later{});
    heap.pop_back();
    // global_heap_ entries are mirrors; dead_entries_ counts the cancelled
    // entries of heap_ only, and fired events leave none there.
    if (&heap != &global_heap_) {
      CMTOS_DCHECK(dead_entries_ > 0);
      --dead_entries_;
    }
  }
  return nullptr;
}

Time NodeRuntime::global_head_time() {
  const HeapEntry* h = peek(global_heap_);
  return h != nullptr ? h->time : kTimeNever;
}

void NodeRuntime::execute_head() {
  const HeapEntry* h = head();
  CMTOS_ASSERT(h != nullptr, "sched.empty_execute");
  if (h == nullptr) return;
  const HeapEntry e = *h;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();

  EventFn fn = std::move(slots_[e.slot].fn);
  const bool was_global = slots_[e.slot].global;
  free_slot(e.slot);
  live_.fetch_sub(1, std::memory_order_relaxed);
  // A fired global event is by definition the earliest global event, i.e.
  // the top of global_heap_; reap it (and any dead run behind it) now so
  // all-global workloads don't grow the heap unboundedly between the
  // executor's global_head_time() probes.
  if (was_global) (void)peek(global_heap_);

  // Event ordering: each shard hands out events in non-decreasing time
  // order — simulated time never runs backwards.
  CMTOS_INVARIANT(e.time >= now(), "sched.ordering");
  set_now(e.time);
  executing_seq_ = e.seq;

  // Tracing: events emitted while `fn` runs are stamped with simulated
  // time, not wall time.  Tracing forces serial rounds, so this global
  // write is single-threaded.
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) tracer.set_sim_time(e.time);

  NodeRuntime* prev = Executor::current_;
  Executor::current_ = this;
  fn();
  Executor::current_ = prev;
}

void NodeRuntime::free_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn.reset();
  s.live = false;
  ++s.gen;  // invalidates outstanding handles (ABA guard)
  s.next_free = free_head_;
  free_head_ = idx;
}

void NodeRuntime::maybe_compact() {
  // Lazy reap: once dead entries dominate the queue, rebuild it.  Keeps
  // cancel O(1) while bounding storage at ~2x the live events, so hot
  // arm/cancel cycles (keepalive, retransmit) stop paying O(dead) churn.
  if (dead_entries_ < 64 || dead_entries_ * 2 < heap_.size()) return;
  const auto dead = [this](const HeapEntry& e) {
    const Slot& s = slots_[e.slot];
    return !s.live || s.gen != e.gen;
  };
  std::erase_if(heap_, dead);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  std::erase_if(global_heap_, dead);
  std::make_heap(global_heap_.begin(), global_heap_.end(), Later{});
  dead_entries_ = 0;
}

}  // namespace cmtos::sim
