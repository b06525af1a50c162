// Unit tests for the §3.7 shared circular buffer: semantics, delivery
// gating, drop-at-source, and semaphore blocking-time accounting.

#include <gtest/gtest.h>

#include "transport/stream_buffer.h"

namespace cmtos::transport {
namespace {

Osdu osdu(std::uint32_t seq, std::size_t bytes = 10) {
  Osdu o;
  o.seq = seq;
  o.data = cmtos::PayloadView::adopt(
      std::vector<std::uint8_t>(bytes, static_cast<std::uint8_t>(seq)));
  return o;
}

TEST(StreamBuffer, PushPopFifo) {
  StreamBuffer b(4);
  EXPECT_TRUE(b.try_push(osdu(0), 0));
  EXPECT_TRUE(b.try_push(osdu(1), 0));
  EXPECT_TRUE(b.try_push(osdu(2), 0));
  auto a = b.try_pop(1);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->seq, 0u);
  EXPECT_EQ(b.try_pop(1)->seq, 1u);
  // Refill past the slots already popped: order survives the wrap.
  EXPECT_TRUE(b.try_push(osdu(3), 2));
  EXPECT_TRUE(b.try_push(osdu(4), 2));
  EXPECT_TRUE(b.try_push(osdu(5), 2));
  EXPECT_TRUE(b.full());
  for (std::uint32_t seq = 2; seq <= 5; ++seq) EXPECT_EQ(b.try_pop(3)->seq, seq);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.try_pop(3).has_value());
}

TEST(StreamBuffer, PushFailsWhenFull) {
  StreamBuffer b(2);
  EXPECT_TRUE(b.try_push(osdu(0), 0));
  EXPECT_TRUE(b.try_push(osdu(1), 0));
  EXPECT_TRUE(b.full());
  EXPECT_FALSE(b.try_push(osdu(2), 0));
}

TEST(StreamBuffer, ProducerBlockTimeAccumulates) {
  StreamBuffer b(1);
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  EXPECT_FALSE(b.try_push(osdu(1), 100));  // block episode opens at t=100
  // Episode still open: charged up to `now`.
  EXPECT_EQ(b.window_stats(250).producer_blocked, 150);
  (void)b.try_pop(300);
  ASSERT_TRUE(b.try_push(osdu(1), 300));  // closes the episode
  EXPECT_EQ(b.window_stats(400).producer_blocked, 200);
}

TEST(StreamBuffer, ConsumerBlockTimeAccumulates) {
  StreamBuffer b(2);
  EXPECT_FALSE(b.try_pop(50).has_value());  // opens episode
  ASSERT_TRUE(b.try_push(osdu(0), 80));
  ASSERT_TRUE(b.try_pop(90).has_value());   // closes episode
  EXPECT_EQ(b.window_stats(100).consumer_blocked, 40);
}

TEST(StreamBuffer, WindowResetKeepsOpenEpisodes) {
  StreamBuffer b(1);
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  EXPECT_FALSE(b.try_push(osdu(1), 100));
  b.reset_window(200);
  // Episode continues across the reset; only time after 200 is charged.
  EXPECT_EQ(b.window_stats(260).producer_blocked, 60);
}

TEST(StreamBuffer, DataAvailableSignalsBlockedConsumer) {
  StreamBuffer b(2);
  int signalled = 0;
  b.set_data_available([&] { ++signalled; });
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  EXPECT_EQ(signalled, 0);  // no consumer was waiting
  (void)b.try_pop(1);
  EXPECT_FALSE(b.try_pop(2).has_value());  // now blocked
  ASSERT_TRUE(b.try_push(osdu(1), 3));
  EXPECT_EQ(signalled, 1);
}

TEST(StreamBuffer, SpaceAvailableSignalsBlockedProducer) {
  StreamBuffer b(1);
  int signalled = 0;
  b.set_space_available([&] { ++signalled; });
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  (void)b.try_pop(1);
  EXPECT_EQ(signalled, 0);  // no producer waiting
  ASSERT_TRUE(b.try_push(osdu(1), 2));
  EXPECT_FALSE(b.try_push(osdu(2), 3));  // blocked
  (void)b.try_pop(4);
  EXPECT_EQ(signalled, 1);
}

TEST(StreamBuffer, BecameFullFires) {
  StreamBuffer b(2);
  int full_events = 0;
  b.set_became_full([&] { ++full_events; });
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  EXPECT_EQ(full_events, 0);
  ASSERT_TRUE(b.try_push(osdu(1), 0));
  EXPECT_EQ(full_events, 1);
}

TEST(StreamBuffer, DeliveryHoldBlocksPopButNotPush) {
  StreamBuffer b(4);
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  b.set_delivery_enabled(false, 1);
  EXPECT_FALSE(b.try_pop(2).has_value());  // held despite data present
  EXPECT_TRUE(b.try_push(osdu(1), 3));     // buffers keep filling (Orch.Prime)
  b.set_delivery_enabled(true, 4);
  EXPECT_EQ(b.try_pop(5)->seq, 0u);
}

TEST(StreamBuffer, ReenableSignalsBlockedConsumer) {
  StreamBuffer b(4);
  int signalled = 0;
  b.set_data_available([&] { ++signalled; });
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  b.set_delivery_enabled(false, 1);
  EXPECT_FALSE(b.try_pop(2).has_value());
  b.set_delivery_enabled(true, 3);
  EXPECT_EQ(signalled, 1);
}

TEST(StreamBuffer, HoldTimeCountsAsConsumerBlocking) {
  // Blocking delivery shows up as sink-application blocking time — the
  // §6.3.1.2 reports rely on this.
  StreamBuffer b(4);
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  b.set_delivery_enabled(false, 0);
  EXPECT_FALSE(b.try_pop(100).has_value());
  EXPECT_EQ(b.window_stats(400).consumer_blocked, 300);
}

TEST(StreamBuffer, DropNewestIsLifoAndSignalsSpace) {
  StreamBuffer b(3);
  int signalled = 0;
  b.set_space_available([&] { ++signalled; });
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  ASSERT_TRUE(b.try_push(osdu(1), 0));
  ASSERT_TRUE(b.try_push(osdu(2), 0));
  EXPECT_FALSE(b.try_push(osdu(3), 5));  // producer blocked
  auto victim = b.drop_newest(10);
  ASSERT_TRUE(victim);
  EXPECT_EQ(victim->seq, 2u);  // newest discarded, oldest survives
  EXPECT_EQ(signalled, 1);
  EXPECT_EQ(b.drop_newest(11)->seq, 1u);  // LIFO: then the next newest
  EXPECT_EQ(signalled, 1);                // the producer was no longer blocked
  EXPECT_EQ(b.try_pop(12)->seq, 0u);
  EXPECT_TRUE(b.empty());
}

TEST(StreamBuffer, DropNewestWhileConsumerBlockedKeepsEpisode) {
  // A drop-at-source while the consumer is mid-block must not disturb the
  // consumer's episode accounting or spuriously signal the producer.
  StreamBuffer b(2);
  int space_signals = 0;
  b.set_space_available([&] { ++space_signals; });
  EXPECT_FALSE(b.try_pop(0).has_value());  // consumer episode opens at t=0
  ASSERT_TRUE(b.try_push(osdu(0), 10));
  auto victim = b.drop_newest(20);
  ASSERT_TRUE(victim);
  EXPECT_EQ(victim->seq, 0u);
  EXPECT_EQ(space_signals, 0);  // producer never blocked
  // Consumer episode still open and charged continuously across the drop.
  EXPECT_EQ(b.window_stats(50).consumer_blocked, 50);
  ASSERT_TRUE(b.try_push(osdu(1), 60));
  ASSERT_TRUE(b.try_pop(70).has_value());  // closes the episode
  EXPECT_EQ(b.window_stats(100).consumer_blocked, 70);
}

TEST(StreamBuffer, ResetWindowMidConsumerBlock) {
  StreamBuffer b(2);
  EXPECT_FALSE(b.try_pop(100).has_value());  // episode opens at t=100
  b.reset_window(300);
  // Only time after the reset is charged; the episode itself survives.
  EXPECT_EQ(b.window_stats(350).consumer_blocked, 50);
  ASSERT_TRUE(b.try_push(osdu(0), 400));
  ASSERT_TRUE(b.try_pop(420).has_value());
  EXPECT_EQ(b.window_stats(500).consumer_blocked, 120);
}

TEST(StreamBuffer, DropNewestOnEmpty) {
  StreamBuffer b(2);
  EXPECT_FALSE(b.drop_newest(0).has_value());
}

TEST(StreamBuffer, FlushEmptiesAndUnblocksProducer) {
  StreamBuffer b(2);
  int signalled = 0;
  b.set_space_available([&] { ++signalled; });
  ASSERT_TRUE(b.try_push(osdu(0), 0));
  ASSERT_TRUE(b.try_push(osdu(1), 0));
  EXPECT_FALSE(b.try_push(osdu(2), 0));
  b.flush(5);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(signalled, 1);
}

TEST(StreamBuffer, PeekDoesNotConsumeAndIgnoresHold) {
  StreamBuffer b(2);
  ASSERT_TRUE(b.try_push(osdu(7), 0));
  b.set_delivery_enabled(false, 0);
  ASSERT_NE(b.peek(), nullptr);
  EXPECT_EQ(b.peek()->seq, 7u);
  EXPECT_EQ(b.size(), 1u);
}

class StreamBufferCapacity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamBufferCapacity, FillDrainInvariant) {
  const std::size_t cap = GetParam();
  StreamBuffer b(cap);
  std::uint32_t in = 0, out = 0;
  for (int round = 0; round < 8; ++round) {
    while (b.try_push(osdu(in), 0)) ++in;
    EXPECT_TRUE(b.full());
    EXPECT_EQ(b.free_slots(), 0u);
    while (auto o = b.try_pop(0)) EXPECT_EQ(o->seq, out++);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.free_slots(), cap);
  }
  EXPECT_EQ(in, out);
  EXPECT_EQ(in, cap * 8);
}

INSTANTIATE_TEST_SUITE_P(Capacities, StreamBufferCapacity,
                         ::testing::Values(1, 2, 3, 8, 16, 64, 255));

}  // namespace
}  // namespace cmtos::transport
