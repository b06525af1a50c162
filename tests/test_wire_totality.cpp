// cmtos/tests/test_wire_totality.cpp
//
// Decoder totality sweep (DESIGN.md §14): every PDU family's decoder is fed
// every proper prefix of a valid encoding, [0, wire_size).  Each one must
// return nullopt with a classified fault — never crash, never over-read
// (ASan/UBSan builds enforce the latter).  A CRC-trailing encoding can
// never survive truncation: either the trailer is gone (kChecksum /
// kTruncated) or what remains fails a structural check.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "net/network.h"
#include "orch/opdu.h"
#include "sim/scheduler.h"
#include "transport/tpdu.h"
#include "util/frame_pool.h"

namespace cmtos {
namespace {

using orch::Opdu;
using orch::OpduType;
using transport::AckTpdu;
using transport::ControlTpdu;
using transport::DataTpdu;
using transport::DatagramTpdu;
using transport::FeedbackTpdu;
using transport::KeepaliveTpdu;
using transport::NakTpdu;
using transport::TpduType;

template <typename Pdu>
void sweep(std::span<const std::uint8_t> wire, const char* family) {
  ASSERT_TRUE(Pdu::decode(wire).has_value()) << family << ": seed encoding must decode";
  for (std::size_t len = 0; len < wire.size(); ++len) {
    WireFault fault = WireFault::kNone;
    const std::span<const std::uint8_t> prefix(wire.data(), len);
    const auto got = Pdu::decode(prefix, &fault);
    EXPECT_FALSE(got.has_value()) << family << ": prefix of length " << len << " accepted";
    EXPECT_NE(fault, WireFault::kNone)
        << family << ": refusal at length " << len << " left fault unclassified";
  }
}

TEST(WireTotality, ControlTpduEveryType) {
  for (int type = 1; type <= 10; ++type) {
    ControlTpdu t;
    t.type = static_cast<TpduType>(type);
    t.vc = 7;
    t.src = {1, 10};
    t.dst = {2, 20};
    t.buffer_osdus = 16;
    sweep<ControlTpdu>(t.encode(), "control_tpdu");
  }
}

TEST(WireTotality, DataTpdu) {
  DataTpdu t;
  t.vc = 3;
  t.tpdu_seq = 41;
  t.osdu_seq = 9;
  t.frag_index = 1;
  t.frag_count = 2;
  t.payload = PayloadView::adopt({1, 2, 3, 4, 5, 6, 7, 8});
  sweep<DataTpdu>(t.encode(), "data_tpdu");
}

TEST(WireTotality, DataTpduEmptyPayload) {
  DataTpdu t;
  t.vc = 3;
  sweep<DataTpdu>(t.encode(), "data_tpdu");
}

TEST(WireTotality, AckTpdu) {
  AckTpdu t;
  t.vc = 5;
  t.cumulative_ack = 100;
  t.window = 32;
  sweep<AckTpdu>(t.encode(), "ack_tpdu");
}

TEST(WireTotality, NakTpdu) {
  NakTpdu t;
  t.vc = 5;
  t.missing = {3, 4, 9};
  sweep<NakTpdu>(t.encode(), "nak_tpdu");
}

TEST(WireTotality, FeedbackTpdu) {
  FeedbackTpdu t;
  t.vc = 5;
  t.free_slots = 3;
  t.capacity = 32;
  t.highest_osdu = 88;
  sweep<FeedbackTpdu>(t.encode(), "fb_tpdu");
}

TEST(WireTotality, KeepaliveTpdu) {
  KeepaliveTpdu t;
  t.vc = 9;
  sweep<KeepaliveTpdu>(t.encode(), "ka_tpdu");
}

TEST(WireTotality, DatagramTpdu) {
  DatagramTpdu t;
  t.src = {1, 10};
  t.dst_tsap = 20;
  t.payload = {9, 8, 7};
  sweep<DatagramTpdu>(t.encode(), "dg_tpdu");
}

TEST(WireTotality, OpduEveryType) {
  static constexpr OpduType kTypes[] = {
      OpduType::kSessReq, OpduType::kSessAck, OpduType::kSessRel, OpduType::kPrime,
      OpduType::kPrimeAck, OpduType::kPrimed, OpduType::kStart, OpduType::kStartAck,
      OpduType::kStop, OpduType::kStopAck, OpduType::kAdd, OpduType::kAddAck,
      OpduType::kRemove, OpduType::kRemoveAck, OpduType::kRegulateSink,
      OpduType::kRegulateSrc, OpduType::kDrop, OpduType::kRegInd, OpduType::kSrcStats,
      OpduType::kEventReg, OpduType::kEventInd, OpduType::kDelayed, OpduType::kDelayedAck,
      OpduType::kVcDead, OpduType::kTimeReq, OpduType::kTimeResp, OpduType::kEpochNack};
  for (const auto type : kTypes) {
    Opdu o;
    o.type = type;
    o.session = 0x1122334455667788ull;
    o.vc = 12;
    o.orch_node = 1;
    o.vcs = {{12, 1, 2}};
    sweep<Opdu>(o.encode(), "opdu");
  }
}

// Encoders size their output once: an encoding that fits the packet's
// inline room (the data plane's AK, FB, KA and short NAKs) allocates
// nothing, a longer one takes a single exactly-sized heap buffer (a short
// reserve would regrow it, a long one would leave slack).
TEST(WireEncodeSize, ControlEncodersReserveExactly) {
  const auto exact = [](const net::WireBytes& wire, const char* family) {
    if (wire.size() <= net::kInlineWireBytes) {
      EXPECT_EQ(wire.capacity(), net::kInlineWireBytes) << family << " left inline room";
    } else {
      EXPECT_EQ(wire.capacity(), wire.size()) << family;
    }
  };
  for (const std::size_t n : {0u, 1u, 5u}) {
    Opdu o;
    o.type = OpduType::kAdd;
    o.vcs.assign(n, {12, 1, 2});
    exact(o.encode(), "opdu");
  }
  ControlTpdu c;
  c.type = TpduType::kCR;
  exact(c.encode(), "control_tpdu");
  exact(AckTpdu{}.encode(), "ack_tpdu");
  NakTpdu nak;
  exact(nak.encode(), "nak_tpdu");
  nak.missing = {3, 4, 9};
  exact(nak.encode(), "nak_tpdu");
  nak.missing.assign(40, 7);
  exact(nak.encode(), "nak_tpdu (long)");
  exact(FeedbackTpdu{}.encode(), "fb_tpdu");
  exact(KeepaliveTpdu{}.encode(), "ka_tpdu");
  DatagramTpdu dg;
  dg.payload = {9, 8, 7};
  exact(dg.encode(), "dg_tpdu");
  DataTpdu dt;
  dt.payload = PayloadView::adopt(std::vector<std::uint8_t>(100, 1));
  exact(dt.encode(), "data_tpdu (flat)");
  for (const auto size : {AckTpdu{}.encode().size(), FeedbackTpdu{}.encode().size(),
                          KeepaliveTpdu{}.encode().size()}) {
    EXPECT_LE(size, net::kInlineWireBytes);
  }
}

// The split packet path: a truncated header must refuse at every length.
TEST(WireTotality, DataTpduPacketHeaderPrefixes) {
  DataTpdu t;
  t.vc = 3;
  t.tpdu_seq = 41;
  t.payload = PayloadView::adopt({1, 2, 3, 4});
  net::Packet pkt;
  t.encode_onto(pkt);
  ASSERT_TRUE(DataTpdu::decode_packet(pkt).has_value());
  const auto full = pkt.payload;
  for (std::size_t len = 0; len < full.size(); ++len) {
    net::Packet cut = pkt;
    cut.payload.assign(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    WireFault fault = WireFault::kNone;
    EXPECT_FALSE(DataTpdu::decode_packet(cut, &fault).has_value())
        << "header prefix of length " << len << " accepted";
    EXPECT_NE(fault, WireFault::kNone);
  }
}

// The link's in-flight damage on the split packet path, applied the way
// Link::impair applies it to the inline header (payload[pos] ^= bit,
// payload.resize(keep), frame cut to a prefix): every cut and every single
// bit flip of the 58-byte header, and every cut of the attached frame, is
// refused with a classified fault.
TEST(WireTotality, DataTpduPacketImpairments) {
  DataTpdu t;
  t.vc = 3;
  t.tpdu_seq = 41;
  t.payload = PayloadView::adopt({1, 2, 3, 4, 5, 6, 7, 8});
  net::Packet pkt;
  t.encode_onto(pkt);
  ASSERT_EQ(pkt.payload.size(), 58u);
  ASSERT_LE(pkt.payload.size(), net::kInlineWireBytes);
  const auto refused = [](const net::Packet& p, const char* what, std::size_t at) {
    WireFault fault = WireFault::kNone;
    EXPECT_FALSE(DataTpdu::decode_packet(p, &fault).has_value()) << what << " " << at;
    EXPECT_TRUE(fault == WireFault::kChecksum || fault == WireFault::kBadLength ||
                fault == WireFault::kTruncated)
        << what << " " << at << ": " << to_string(fault);
  };
  // Truncation at every header length: the frame is lost with it.
  for (std::size_t keep = 0; keep < pkt.payload.size(); ++keep) {
    net::Packet cut = pkt;
    cut.payload.resize(keep);
    cut.frame.reset();
    refused(cut, "header cut to", keep);
  }
  // Truncation inside the frame: the header survives, its length does not
  // match.
  for (std::size_t keep = 0; keep < pkt.frame.size(); ++keep) {
    net::Packet cut = pkt;
    cut.frame = cut.frame.subview(0, keep);
    refused(cut, "frame cut to", keep);
  }
  // Every single bit flip in the header.
  for (std::size_t pos = 0; pos < pkt.payload.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      net::Packet hit = pkt;
      hit.payload[pos] ^= narrow<std::uint8_t>(1u << bit);
      refused(hit, "bit flip at byte", pos);
    }
  }
  // The pristine packet still decodes: the copies above never aliased it.
  EXPECT_TRUE(DataTpdu::decode_packet(pkt).has_value());
}

// The same damage from a real link: every packet cut in flight (and some
// bit-flipped first) arrives refused, never accepted and never a crash.
TEST(WireTotality, DataTpduThroughImpairingLink) {
  sim::Scheduler sched;
  net::Network network(sched, Rng(11));
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 100'000'000;
  cfg.truncate_rate = 1.0;
  cfg.bit_error_rate = 1e-4;
  cfg.queue_limit_packets = 512;  // the whole test burst queues at once
  const net::NodeId a = network.add_node("a");
  const net::NodeId b = network.add_node("b");
  network.add_link(a, b, cfg);
  network.finalize_routes();
  std::map<WireFault, int> faults;
  int accepted = 0;
  network.node(b).set_handler(net::Proto::kTransportData, [&](net::Packet&& p) {
    WireFault fault = WireFault::kNone;
    if (DataTpdu::decode_packet(p, &fault)) {
      ++accepted;
    } else {
      ++faults[fault];
    }
  });
  const PayloadView frame = PayloadView::adopt(std::vector<std::uint8_t>(200, 0x3c));
  constexpr int kPackets = 400;
  for (int i = 0; i < kPackets; ++i) {
    DataTpdu t;
    t.vc = 3;
    t.tpdu_seq = narrow<std::uint32_t>(i);
    t.payload = frame;
    net::Packet pkt;
    pkt.src = a;
    pkt.dst = b;
    pkt.proto = net::Proto::kTransportData;
    t.encode_onto(pkt);
    network.send(std::move(pkt));
  }
  sched.run();
  EXPECT_EQ(accepted, 0);
  int refused = 0;
  for (const auto& [fault, n] : faults) {
    EXPECT_TRUE(fault == WireFault::kChecksum || fault == WireFault::kBadLength ||
                fault == WireFault::kTruncated)
        << to_string(fault);
    refused += n;
  }
  EXPECT_EQ(refused, kPackets);
  EXPECT_GT(faults[WireFault::kChecksum], 0);   // header cuts and flips
  EXPECT_GT(faults[WireFault::kBadLength], 0);  // frame cuts
}

}  // namespace
}  // namespace cmtos
