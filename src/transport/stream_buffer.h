// cmtos/transport/stream_buffer.h
//
// The shared circular-buffer data transfer interface of §3.7.
//
// "Our experiments in this area favour the adoption of a data transfer
// interface based around shared circular buffers with access contention
// between separate application and protocol threads controlled by
// semaphores. ...  the time spent blocking by both the application and the
// transport entity can be measured by monitoring the state of the
// synchronisation semaphores.  These statistics are used by the
// orchestration service."
//
// In the discrete-event simulation both "threads" run in the same OS
// thread, so blocking is modelled rather than real: a failed try_push /
// try_pop opens a *block episode* for that side, closed by the next
// successful complementary operation.  The accumulated episode durations
// are exactly the semaphore-wait statistics the LLO reports in
// Orch.Regulate.indication (§6.3.1.2).  A true multi-threaded variant with
// std::counting_semaphore lives in transport/threaded_buffer.h and is
// exercised by the A3 micro-benchmark.
//
// The OSDUs sit in a util/fifo.h ring behind the capacity bound: the
// paper's circular buffer of `capacity` slots, whose storage is allocated
// on the first push (a VC that never carries data costs no ring) and then
// kept, so steady-state pushes and pops allocate nothing.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "obs/trace.h"
#include "transport/osdu.h"
#include "util/fifo.h"
#include "util/time.h"
#include "util/thread_annotations.h"

namespace cmtos::transport {

/// Blocking-time statistics for one side of the buffer over a window.
struct BlockStats {
  Duration producer_blocked = 0;
  Duration consumer_blocked = 0;
};

class CMTOS_SHARD_AFFINE StreamBuffer {
 public:
  explicit StreamBuffer(std::size_t capacity_osdus);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  std::size_t free_slots() const { return capacity_ - ring_.size(); }
  bool empty() const { return ring_.empty(); }
  bool full() const { return ring_.size() == capacity_; }

  /// Producer side.  On failure (full) opens the producer block episode.
  /// On success closes it and, if a consumer was blocked on empty, invokes
  /// the data-available callback (the "semaphore signal").
  bool try_push(Osdu osdu, Time now);

  /// Consumer side.  Returns nullopt when the buffer is empty *or delivery
  /// is held* (the LLO's Orch.Prime / Orch.Stop gate, §6.2.1: buffers fill
  /// but data is not delivered to the application thread).  Failure opens
  /// the consumer block episode; success closes it and signals a blocked
  /// producer via the space-available callback.
  std::optional<Osdu> try_pop(Time now);

  /// Peek at the next OSDU the consumer would receive (ignores the delivery
  /// hold; used by the LLO for position queries).
  const Osdu* peek() const { return ring_.empty() ? nullptr : &ring_.front(); }

  /// Discards the most recently pushed OSDU (drop-at-source compensation,
  /// §6.3.1.1).  Returns it, or nullopt if empty.
  std::optional<Osdu> drop_newest(Time now);

  /// Discards the *oldest* OSDU regardless of the delivery gate (sink-side
  /// load shedding: when the consumer stalls, stale continuous-media data
  /// loses its value and is dropped to keep the pipeline moving).  Closes a
  /// producer block episode but deliberately does NOT fire the
  /// space-available callback: the shedding caller refills the freed slot
  /// itself, and signalling here would re-enter it.  Returns the shed OSDU,
  /// or nullopt if empty.
  std::optional<Osdu> shed_oldest(Time now);

  /// Discards everything (stop-seek-restart flush, §6.2.1).
  void flush(Time now);

  // --- LLO delivery gate ---
  void set_delivery_enabled(bool enabled, Time now);
  bool delivery_enabled() const { return delivery_enabled_; }

  // --- callbacks ("semaphore signals") ---
  /// Invoked after a push that follows a failed pop, i.e. a blocked
  /// consumer can now proceed.
  void set_data_available(std::function<void()> fn) { data_available_ = std::move(fn); }
  /// Invoked after a pop/drop that follows a failed push.
  void set_space_available(std::function<void()> fn) { space_available_ = std::move(fn); }
  /// Invoked whenever the buffer becomes full (the LLO's primed detector).
  void set_became_full(std::function<void()> fn) { became_full_ = std::move(fn); }

  // --- semaphore-wait accounting ---
  /// Blocking time accumulated since the last window reset.  Open episodes
  /// are charged up to `now`.
  BlockStats window_stats(Time now) const;
  void reset_window(Time now);

  /// Trace coordinates for block-episode spans (pid = node, tid = VC); the
  /// owning Connection sets them once at establishment.
  void set_trace_identity(int pid, int tid) {
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

 private:
  void open_producer_episode(Time now);
  void close_producer_episode(Time now);
  void open_consumer_episode(Time now);
  void close_consumer_episode(Time now);

  Fifo<Osdu> ring_;
  std::size_t capacity_;
  bool delivery_enabled_ = true;

  std::function<void()> data_available_;
  std::function<void()> space_available_;
  std::function<void()> became_full_;

  // Block-episode state.
  Time producer_blocked_since_ = kTimeNever;
  Time consumer_blocked_since_ = kTimeNever;
  Duration producer_blocked_acc_ = 0;
  Duration consumer_blocked_acc_ = 0;

  // Tracing: async-span ids for the currently open episodes (0 = no span).
  int trace_pid_ = 0;
  int trace_tid_ = 0;
  std::uint64_t producer_span_id_ = 0;
  std::uint64_t consumer_span_id_ = 0;
};

}  // namespace cmtos::transport
