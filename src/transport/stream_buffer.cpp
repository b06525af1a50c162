#include "transport/stream_buffer.h"

#include "util/contract.h"

namespace cmtos::transport {

namespace {
constexpr const char* kProducerSpan = "Buffer.block.producer";
constexpr const char* kConsumerSpan = "Buffer.block.consumer";
}  // namespace

StreamBuffer::StreamBuffer(std::size_t capacity_osdus) : capacity_(capacity_osdus) {
  CMTOS_ASSERT(capacity_osdus > 0, "buffer.capacity");
}

bool StreamBuffer::try_push(Osdu osdu, Time now) {
  if (full()) {
    open_producer_episode(now);
    return false;
  }
  ring_.push_back(std::move(osdu));
  close_producer_episode(now);
  const bool full_now = full();
  if (consumer_blocked_since_ != kTimeNever && data_available_) data_available_();
  if (full_now && became_full_) became_full_();
  return true;
}

std::optional<Osdu> StreamBuffer::try_pop(Time now) {
  if (ring_.empty() || !delivery_enabled_) {
    open_consumer_episode(now);
    return std::nullopt;
  }
  Osdu v = std::move(ring_.front());
  ring_.pop_front();
  close_consumer_episode(now);
  if (producer_blocked_since_ != kTimeNever && space_available_) space_available_();
  return v;
}

std::optional<Osdu> StreamBuffer::drop_newest(Time now) {
  if (ring_.empty()) return std::nullopt;
  // "Performed at the source by incrementing the source shared buffer
  // pointer" (§6.3.1.1): the newest slot is freed for the next OSDU.
  Osdu v = std::move(ring_.back());
  ring_.pop_back();
  // A drop frees space exactly like a pop: unblock the producer.
  const bool producer_was_blocked = producer_blocked_since_ != kTimeNever;
  close_producer_episode(now);
  if (producer_was_blocked && space_available_) space_available_();
  return v;
}

std::optional<Osdu> StreamBuffer::shed_oldest(Time now) {
  if (ring_.empty()) return std::nullopt;
  Osdu v = std::move(ring_.front());
  ring_.pop_front();
  // Frees a slot like a pop, but no space-available signal: the shedding
  // caller (Connection::push_delivery_queue) immediately refills the slot
  // and a callback here would re-enter it.
  close_producer_episode(now);
  return v;
}

void StreamBuffer::flush(Time now) {
  ring_.clear();
  const bool producer_was_blocked = producer_blocked_since_ != kTimeNever;
  close_producer_episode(now);
  if (producer_was_blocked && space_available_) space_available_();
}

void StreamBuffer::set_delivery_enabled(bool enabled, Time now) {
  if (delivery_enabled_ == enabled) return;
  delivery_enabled_ = enabled;
  // Re-enabling delivery with data present releases a blocked consumer.
  if (enabled && !ring_.empty() && consumer_blocked_since_ != kTimeNever && data_available_)
    data_available_();
  (void)now;
}

BlockStats StreamBuffer::window_stats(Time now) const {
  BlockStats s;
  s.producer_blocked = producer_blocked_acc_;
  s.consumer_blocked = consumer_blocked_acc_;
  if (producer_blocked_since_ != kTimeNever) s.producer_blocked += now - producer_blocked_since_;
  if (consumer_blocked_since_ != kTimeNever) s.consumer_blocked += now - consumer_blocked_since_;
  return s;
}

void StreamBuffer::reset_window(Time now) {
  producer_blocked_acc_ = 0;
  consumer_blocked_acc_ = 0;
  if (producer_blocked_since_ != kTimeNever) producer_blocked_since_ = now;
  if (consumer_blocked_since_ != kTimeNever) consumer_blocked_since_ = now;
}

void StreamBuffer::open_producer_episode(Time now) {
  if (producer_blocked_since_ != kTimeNever) return;
  producer_blocked_since_ = now;
  auto& tr = obs::Tracer::global();
  if (tr.enabled()) {
    producer_span_id_ = tr.next_async_id();
    tr.async_begin(kProducerSpan, producer_span_id_, trace_pid_, trace_tid_);
  }
}

void StreamBuffer::close_producer_episode(Time now) {
  if (producer_blocked_since_ == kTimeNever) return;
  // Episode accounting: an episode closes at or after it opened, so the
  // accumulator only ever grows.
  CMTOS_INVARIANT(now >= producer_blocked_since_, "buffer.episode_order");
  producer_blocked_acc_ += now - producer_blocked_since_;
  producer_blocked_since_ = kTimeNever;
  if (producer_span_id_ != 0) {
    obs::Tracer::global().async_end(kProducerSpan, producer_span_id_, trace_pid_, trace_tid_);
    producer_span_id_ = 0;
  }
}

void StreamBuffer::open_consumer_episode(Time now) {
  if (consumer_blocked_since_ != kTimeNever) return;
  consumer_blocked_since_ = now;
  auto& tr = obs::Tracer::global();
  if (tr.enabled()) {
    consumer_span_id_ = tr.next_async_id();
    tr.async_begin(kConsumerSpan, consumer_span_id_, trace_pid_, trace_tid_);
  }
}

void StreamBuffer::close_consumer_episode(Time now) {
  if (consumer_blocked_since_ == kTimeNever) return;
  CMTOS_INVARIANT(now >= consumer_blocked_since_, "buffer.episode_order");
  consumer_blocked_acc_ += now - consumer_blocked_since_;
  consumer_blocked_since_ = kTimeNever;
  if (consumer_span_id_ != 0) {
    obs::Tracer::global().async_end(kConsumerSpan, consumer_span_id_, trace_pid_, trace_tid_);
    consumer_span_id_ = 0;
  }
}

}  // namespace cmtos::transport
