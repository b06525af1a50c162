// Steady-state allocation discipline for the zero-copy media path
// (DESIGN.md "Two-world data plane").
//
// A paced 64 KiB stream is pumped over several regulation intervals.
// After a warmup window (pool magazines fill, rings and retain maps reach
// their high-water marks) the data plane must run out of recycled frames:
// the FramePool miss counter must stay at zero, and the per-OSDU heap
// allocation count must be flat from window to window.  A reintroduced
// per-fragment copy or per-packet buffer shows up here as a step in the
// allocs-per-OSDU curve long before it shows up in a wall-clock bench.
//
// The absolute ceiling pins the level as well: a data TPDU carries its
// header inline (net::WireBytes) and its body as a frame view, and the
// link and source queues keep their capacity, so a 64 KiB OSDU (47 TPDUs)
// costs a handful of allocations, not one or more per TPDU.
//
// This file replaces global operator new (alloc_hooks.h), so it must stay
// a single-TU binary of its own.

#include "alloc_hooks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fixtures.h"
#include "media/content.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "transport/stream_buffer.h"
#include "transport/tpdu.h"
#include "util/frame_pool.h"

namespace cmtos::test {
namespace {

struct Window {
  std::int64_t delivered = 0;
  std::int64_t heap_allocs = 0;
  std::int64_t pool_misses = 0;
  double allocs_per_osdu() const {
    return static_cast<double>(heap_allocs) /
           static_cast<double>(std::max<std::int64_t>(1, delivered));
  }
};

TEST(SteadyStateAlloc, MediaPathAllocationsFlatAfterWarmup) {
  net::LinkConfig link;
  link.bandwidth_bps = 1'000'000'000;
  link.propagation_delay = 1 * kMillisecond;
  link.media_batch_max = 32;
  PairPlatform w(link, 97);
  ScriptedUser src_user(w.a->entity), dst_user(w.b->entity);
  w.a->entity.bind(1, &src_user);
  w.b->entity.bind(2, &dst_user);

  constexpr std::size_t kOsduBytes = 64 * 1024;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 250.0,
                           static_cast<std::int64_t>(kOsduBytes));
  req.service_class.profile = transport::ProtocolProfile::kRateBasedCm;
  req.service_class.error_control = transport::ErrorControl::kIndicate;
  req.buffer_osdus = 64;
  req.pacing_burst = 32;
  const auto vc = w.a->entity.t_connect_request(req);
  w.platform.run_until(500 * kMillisecond);

  auto* source = w.a->entity.source(vc);
  auto* sink = w.b->entity.sink(vc);
  ASSERT_NE(source, nullptr);
  ASSERT_NE(sink, nullptr);

  // One immutable template frame; every submission shares it by refcount,
  // so the steady state leases nothing new from the pool.
  const auto frame = media::make_frame_view(1, 0, kOsduBytes);

  auto pump_for = [&](Duration dur) {
    std::int64_t delivered = 0;
    const Time until = w.platform.scheduler().now() + dur;
    while (w.platform.scheduler().now() < until) {
      while (source->submit(frame)) {
      }
      w.platform.run_until(w.platform.scheduler().now() + 20 * kMillisecond);
      while (auto o = sink->receive()) {
        (void)o;
        ++delivered;
      }
    }
    return delivered;
  };

  // Warmup: regulation settles, magazines fill, rings hit capacity.
  (void)pump_for(2 * kSecond);

  constexpr int kWindows = 4;
  Window win[kWindows];
  for (int i = 0; i < kWindows; ++i) {
    const std::int64_t heap0 = bench::heap_allocs();
    const auto pool0 = FramePool::global().stats();
    win[i].delivered = pump_for(2 * kSecond);
    win[i].heap_allocs = bench::heap_allocs() - heap0;
    win[i].pool_misses = FramePool::global().stats().pool_misses - pool0.pool_misses;
  }

  for (int i = 0; i < kWindows; ++i) {
    ASSERT_GT(win[i].delivered, 0) << "window " << i << " delivered nothing";
    // Once warmed, the pool must never fall back to the heap.
    EXPECT_EQ(win[i].pool_misses, 0) << "pool miss in steady-state window " << i;
  }

  // Flat heap curve: every window's allocs-per-OSDU must match the first
  // measurement window within a small tolerance (the slack absorbs hash-map
  // rehashes and vector growth amortised across windows).
  const double base = win[0].allocs_per_osdu();
  for (int i = 1; i < kWindows; ++i) {
    const double apo = win[i].allocs_per_osdu();
    EXPECT_LE(std::abs(apo - base), 0.10 * base + 8.0)
        << "allocs/OSDU drifted: window 0 = " << base << ", window " << i << " = " << apo;
  }
  // Absolute ceiling: 47 TPDUs per OSDU, so one heap buffer per packet
  // alone would cost ~47 allocs/OSDU.
  for (int i = 0; i < kWindows; ++i) {
    EXPECT_LE(win[i].allocs_per_osdu(), 20.0)
        << "window " << i << ": " << win[i].allocs_per_osdu() << " allocs/OSDU";
  }
}

// pacing_burst is a u16 the peer's CR/RCR carries, so it must not size an
// allocation by itself: the pacer's burst vector is sized to the fragments
// in hand.  At the largest pacing_burst, with one-fragment OSDUs, the heap
// bytes requested per delivered OSDU stay small; reserving the full burst
// per pacer tick would request ~8.9 MB (65,535 packets) per tick.
TEST(SteadyStateAlloc, LargePacingBurstAllocatesOnlyWhatItSends) {
  PairPlatform w(lan_link(), 41);
  ScriptedUser src_user(w.a->entity), dst_user(w.b->entity);
  w.a->entity.bind(1, &src_user);
  w.b->entity.bind(2, &dst_user);

  constexpr std::size_t kOsduBytes = 512;
  auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 200.0,
                           static_cast<std::int64_t>(kOsduBytes));
  req.service_class.profile = transport::ProtocolProfile::kRateBasedCm;
  req.service_class.error_control = transport::ErrorControl::kIndicate;
  req.buffer_osdus = 16;
  req.pacing_burst = 0xffff;
  const auto vc = w.a->entity.t_connect_request(req);
  w.platform.run_until(500 * kMillisecond);
  auto* source = w.a->entity.source(vc);
  auto* sink = w.b->entity.sink(vc);
  ASSERT_NE(source, nullptr);
  ASSERT_NE(sink, nullptr);
  ASSERT_EQ(source->request().pacing_burst, 0xffff);

  const auto frame = media::make_frame_view(1, 0, kOsduBytes);
  auto pump_for = [&](Duration dur) {
    std::int64_t delivered = 0;
    const Time until = w.platform.scheduler().now() + dur;
    while (w.platform.scheduler().now() < until) {
      while (source->submit(frame)) {
      }
      w.platform.run_until(w.platform.scheduler().now() + 20 * kMillisecond);
      while (auto o = sink->receive()) {
        (void)o;
        ++delivered;
      }
    }
    return delivered;
  };

  (void)pump_for(1 * kSecond);  // warm-up
  const std::int64_t bytes0 = bench::heap_alloc_bytes();
  const std::int64_t delivered = pump_for(2 * kSecond);
  const std::int64_t bytes = bench::heap_alloc_bytes() - bytes0;
  ASSERT_GT(delivered, 100);
  EXPECT_LE(bytes / delivered, 4096)
      << bytes << " heap bytes requested for " << delivered << " OSDUs";
}

// The data-TPDU wire path on its own: DataTpdu::encode_onto -> burst
// injection -> batching link -> DataTpdu::decode_packet at the far node.
// After warm-up no TPDU allocates: the header is inline in the packet, the
// fragment is a view of a frame allocated once, and the queues and event
// slots keep their capacity.  What remains is per burst, not per TPDU:
// the burst vector that rides the injection event, and the buffers that
// carry the burst to the receiving shard.  The burst's first TPDU finds
// the link idle and is serialised alone (its delivery event boxes it);
// the rest queue behind it and go as one batch, in one vector.  So a
// burst of 32 TPDUs allocates exactly what a burst of 16 does.
TEST(SteadyStateAlloc, DataTpduRoundTripAllocatesNothingPerTpdu) {
  constexpr std::size_t kBurst = 32;
  sim::Scheduler sched;
  net::Network network(sched, Rng(7));
  net::LinkConfig link;
  link.bandwidth_bps = 1'000'000'000;
  link.propagation_delay = 1 * kMillisecond;
  link.media_batch_max = kBurst;
  const net::NodeId a = network.add_node("a");
  const net::NodeId b = network.add_node("b");
  network.add_link(a, b, link);
  network.finalize_routes();

  std::int64_t decoded = 0;
  std::int64_t refused = 0;
  network.node(b).set_handler(net::Proto::kTransportData, [&](net::Packet&& pkt) {
    if (transport::DataTpdu::decode_packet(pkt).has_value()) {
      ++decoded;
    } else {
      ++refused;
    }
  });

  const PayloadView frame = PayloadView::adopt(std::vector<std::uint8_t>(
      transport::kMaxTpduPayload * kBurst, 0x5a));
  std::uint32_t seq = 0;
  // One burst of `n` TPDUs, run to delivery; returns its heap allocations.
  const auto round_trip = [&](std::size_t n) {
    const std::int64_t heap0 = bench::heap_allocs();
    std::vector<net::Packet> burst;
    burst.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      transport::DataTpdu dt;
      dt.vc = 1;
      dt.tpdu_seq = seq++;
      dt.frag_index = static_cast<std::uint16_t>(i);
      dt.frag_count = static_cast<std::uint16_t>(n);
      dt.payload = frame.subview(i * transport::kMaxTpduPayload, transport::kMaxTpduPayload);
      net::Packet pkt;
      pkt.src = a;
      pkt.dst = b;
      pkt.proto = net::Proto::kTransportData;
      pkt.priority = net::Priority::kMedia;
      dt.encode_onto(pkt);
      burst.push_back(std::move(pkt));
    }
    network.send(std::move(burst));
    sched.run_until(sched.now() + 10 * kMillisecond);
    return bench::heap_allocs() - heap0;
  };

  for (int i = 0; i < 8; ++i) (void)round_trip(kBurst);  // warm-up
  const std::int64_t decoded0 = decoded;
  const std::int64_t full = round_trip(kBurst);
  const std::int64_t half = round_trip(kBurst / 2);
  EXPECT_EQ(decoded - decoded0, static_cast<std::int64_t>(kBurst + kBurst / 2));
  EXPECT_EQ(refused, 0);
  EXPECT_EQ(full, half) << "a burst of " << kBurst << " TPDUs made " << full
                        << " heap allocations, a burst of " << kBurst / 2 << " made " << half;
  EXPECT_LE(full, 3) << "allocations beyond the burst vector, head box and batch vector";
}

// A VC's shared ring (§3.7) costs nothing until data flows: building a
// StreamBuffer allocates no slots, the first push allocates the storage,
// and once it has held `capacity` OSDUs it keeps that storage.  The VC
// half opens idle VCs with a 64-slot and a 2-slot ring: with lazy storage
// the heap bytes requested do not depend on the capacity (64 eager slots
// per endpoint would cost 62 * sizeof(Osdu) more each).
TEST(SteadyStateAlloc, IdleStreamBufferAllocatesNothing) {
  {
    const std::int64_t heap0 = bench::heap_allocs();
    transport::StreamBuffer b(64);
    EXPECT_EQ(bench::heap_allocs() - heap0, 0) << "ring storage allocated at construction";
    ASSERT_TRUE(b.try_push(transport::Osdu{}, 0));
    EXPECT_GT(bench::heap_allocs() - heap0, 0) << "the first push allocates the storage";
    while (b.try_push(transport::Osdu{}, 0)) {
    }
    while (b.try_pop(0)) {
    }
    const std::int64_t warm = bench::heap_allocs();
    while (b.try_push(transport::Osdu{}, 0)) {
    }
    EXPECT_EQ(b.size(), 64u);
    EXPECT_EQ(bench::heap_allocs() - warm, 0) << "a refill to capacity allocated";
  }

  constexpr int kVcs = 8;
  const auto open_idle_vcs = [&](std::uint32_t buffer_osdus) {
    PairPlatform w(lan_link(), 5);
    ScriptedUser src_user(w.a->entity), dst_user(w.b->entity);
    w.a->entity.bind(1, &src_user);
    w.b->entity.bind(2, &dst_user);
    const std::int64_t bytes0 = bench::heap_alloc_bytes();
    for (int i = 0; i < kVcs; ++i) {
      auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 25.0, 512);
      req.buffer_osdus = buffer_osdus;
      (void)w.a->entity.t_connect_request(req);
    }
    w.platform.run_until(1 * kSecond);
    EXPECT_EQ(src_user.confirms.size(), static_cast<std::size_t>(kVcs));
    return bench::heap_alloc_bytes() - bytes0;
  };
  (void)open_idle_vcs(2);  // warm-up: process-wide first-use allocations
  const std::int64_t big = open_idle_vcs(64);
  const std::int64_t small = open_idle_vcs(2);
  EXPECT_EQ(big, small) << "opening " << kVcs << " idle VCs requested " << big
                        << " heap bytes with 64-slot rings, " << small << " with 2-slot rings";
}

}  // namespace
}  // namespace cmtos::test
