// Unit tests for cmtos/util: time, rng, checksum, stats, ring buffer,
// byte_io.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/byte_io.h"
#include "util/checksum.h"
#include "util/fifo.h"
#include "util/rng.h"
#include "util/small_bytes.h"
#include "util/stats.h"
#include "util/time.h"

namespace cmtos {
namespace {

TEST(Time, TransmissionTimeRoundsUp) {
  // 1000 bytes at 8 Mbit/s = exactly 1 ms.
  EXPECT_EQ(transmission_time(1000, 8'000'000), 1 * kMillisecond);
  // 1 byte at 1 Gbit/s = 8 ns.
  EXPECT_EQ(transmission_time(1, 1'000'000'000), 8);
  // Non-dividing case rounds up, never down.
  EXPECT_EQ(transmission_time(1, 3), (8 * kSecond + 2) / 3);
  EXPECT_EQ(transmission_time(100, 0), 0);
}

TEST(Time, FormatTime) {
  EXPECT_EQ(format_time(1500 * kMicrosecond), "1.500ms");
  EXPECT_EQ(format_time(2 * kSecond), "2.000s");
  EXPECT_EQ(format_time(750), "750ns");
  EXPECT_EQ(format_time(-1500 * kMicrosecond), "-1.500ms");
}

TEST(Time, SecondsConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(1500 * kMillisecond), 1.5);
  EXPECT_EQ(from_seconds(1.5), 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_millis(20 * kMillisecond), 20.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng r(13);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(17);
  double acc = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) acc += r.exponential(5.0);
  EXPECT_NEAR(acc / kTrials, 5.0, 0.25);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // The child stream should not be a shifted copy of the parent's.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == child.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Checksum, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (standard check value).
  const std::string s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}), 0xCBF43926u);
}

TEST(Checksum, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(128);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  const auto good = crc32(data);
  data[40] ^= 0x10;
  EXPECT_NE(crc32(data), good);
}

TEST(Checksum, EmptyInput) { EXPECT_EQ(crc32({}), 0u); }

TEST(OnlineStats, MeanVarMinMax) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(42);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1);
  EXPECT_DOUBLE_EQ(s.min(), 1);
  EXPECT_DOUBLE_EQ(s.max(), 100);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(RateMeter, RatesOverWindow) {
  RateMeter m;
  m.begin_window(0);
  for (int i = 0; i < 25; ++i) m.record(1000);
  EXPECT_DOUBLE_EQ(m.event_rate(1 * kSecond), 25.0);
  EXPECT_DOUBLE_EQ(m.bit_rate(1 * kSecond), 25.0 * 8000);
  EXPECT_EQ(m.event_rate(0), 0.0);  // zero-length window
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0, 10, 10);
  h.add(-1);
  h.add(0);
  h.add(5.5);
  h.add(9.999);
  h.add(10);
  h.add(100);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 2);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(5), 1);
  EXPECT_EQ(h.bucket(9), 1);
  EXPECT_EQ(h.total(), 6);
}

TEST(ByteIo, RoundTripsAllTypes) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.blob(std::vector<std::uint8_t>{1, 2, 3});

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.at_end());
}

TEST(ByteIo, UnderrunThrows) {
  std::vector<std::uint8_t> buf{1, 2};
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x0201);
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(ByteIo, LittleEndianOnWire) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u32(0x11223344);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[3], 0x11);
}

// The same writer encodes into inline packet bytes: identical bytes, and
// the string stays inline until it outgrows N, then spills once.
TEST(ByteIo, WriterOverSmallBytesMatchesVector) {
  std::vector<std::uint8_t> flat;
  SmallBytes<16> small;
  ByteWriter wf(flat);
  ByteWriter ws(small);
  wf.u64(0x0123456789abcdefull);
  ws.u64(0x0123456789abcdefull);
  EXPECT_EQ(small.capacity(), 16u);
  wf.u32(7);
  ws.u32(7);
  wf.str("spills past sixteen");
  ws.str("spills past sixteen");
  EXPECT_GT(small.capacity(), 16u);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), flat.begin(), flat.end()));
}

TEST(SmallBytes, InlineThenHeapCopyMoveResize) {
  SmallBytes<16> a{1, 2, 3};
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.capacity(), 16u);
  SmallBytes<16> b = a;             // inline copy
  SmallBytes<16> c = std::move(b);  // inline move leaves the source empty
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c, a);
  a.resize(40);  // spills: zero-extended
  EXPECT_GE(a.capacity(), 40u);
  EXPECT_EQ(a[2], 3);
  EXPECT_EQ(a[39], 0);
  const std::uint8_t* heap = a.data();
  SmallBytes<16> d = std::move(a);  // heap move steals the buffer
  EXPECT_EQ(d.data(), heap);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.capacity(), 16u);
  a = d;  // heap copy
  EXPECT_EQ(a, d);
  a.resize(2);  // truncation keeps the capacity
  EXPECT_EQ(a.size(), 2u);
  EXPECT_GE(a.capacity(), 40u);
  a.assign(5, 0xee);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a[4], 0xee);
  SmallBytes<16> e;
  e.reserve(100);  // exact reserve: one buffer of exactly 100
  EXPECT_EQ(e.capacity(), 100u);
  const std::span<const std::uint8_t> view(d);
  EXPECT_EQ(view.size(), 40u);
}

TEST(Fifo, BothEndsAcrossGrowthAndWrap) {
  Fifo<int> q;
  EXPECT_EQ(q.capacity(), 0u);  // nothing allocated until the first push
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3 + round % 5; ++i) q.push_back(int{next_in++});
    while (q.size() > 2) {
      EXPECT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  const std::size_t cap = q.capacity();
  EXPECT_EQ(cap & (cap - 1), 0u);
  EXPECT_EQ(q[0], next_out);
  EXPECT_EQ(q.back(), next_in - 1);
  q.push_front(-1);
  EXPECT_EQ(q.front(), -1);
  q.pop_back();
  EXPECT_EQ(q.back(), next_in - 2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);  // clear keeps the capacity
}

TEST(Fifo, PopAndClearReleaseElements) {
  auto token = std::make_shared<std::string>("frame");
  {
    Fifo<std::shared_ptr<std::string>> q;
    for (int i = 0; i < 10; ++i) q.push_back(std::shared_ptr<std::string>(token));
    EXPECT_EQ(token.use_count(), 11);
    q.pop_front();
    q.pop_back();
    EXPECT_EQ(token.use_count(), 9);
    q.clear();
    EXPECT_EQ(token.use_count(), 1);
    q.push_back(std::shared_ptr<std::string>(token));
  }
  EXPECT_EQ(token.use_count(), 1);  // the destructor releases the rest
}

}  // namespace
}  // namespace cmtos
