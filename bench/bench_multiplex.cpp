// Experiment A1 — §3.6 ablation: multiplexing related media onto a single
// VC vs separate orchestrated VCs ([Tennenhouse,90]: "layered multiplexing
// considered harmful").
//
// The paper's arguments against the single-VC approach:
//   (a) "multiplexing leads to a combined QoS which must be sufficient for
//       the most demanding medium" — measured as reserved bandwidth and
//       the loss tolerance forced onto the loss-intolerant medium;
//   (b) mux/demux overhead and lost parallelism;
//   (c) impossible when media originate from different sources.
//
// Table 1: resource cost — reserved bandwidth & contract quality.
// Table 2: behaviour under loss — with one VC, audio inherits video's
//          relaxed loss tolerance (or video pays for audio's strict one).

#include "alloc_hooks.h"
#include "common.h"

#include <chrono>

namespace cmtos::bench {
namespace {

/// The multiplexed variant: one VC carrying interleaved A+V; the mux takes
/// the strictest of each QoS axis (combined QoS).
struct MuxWorld {
  MuxWorld(double loss) : platform(71) {
    a = &platform.add_host("server");
    b = &platform.add_host("ws");
    net::LinkConfig link = lan_link();
    link.loss_rate = loss;
    platform.network().add_link(a->id, b->id, link);
    platform.network().finalize_routes();
  }
  platform::Platform platform;
  platform::Host* a = nullptr;
  platform::Host* b = nullptr;
};

struct MuxResult {
  std::int64_t reserved_bps = 0;
  double audio_loss_frac = 0;
  double video_loss_frac = 0;
  Duration audio_jitter_bound = 0;  // the jitter bound audio actually got
  bool connected = false;
};

// Combined-QoS single VC: 75 OSDU/s (25 video + 50 audio interleaved),
// max OSDU = video frame size, jitter bound = audio's strict bound,
// loss tolerance = audio's strict bound (combined QoS must satisfy the
// most demanding medium on *every* axis).
MuxResult run_multiplexed(double loss) {
  MuxWorld w(loss);
  AutoUser src_user(w.a->entity), dst_user(w.b->entity);
  w.a->entity.bind(1, &src_user);
  w.b->entity.bind(2, &dst_user);

  platform::VideoQos vq;
  vq.frames_per_second = 25;
  platform::AudioQos aq;
  aq.blocks_per_second = 50;
  transport::ConnectRequest req;
  req.initiator = req.src = {w.a->id, 1};
  req.dst = {w.b->id, 2};
  req.qos.preferred.osdu_rate = 75;
  req.qos.preferred.max_osdu_bytes = vq.frame_bytes();
  req.qos.preferred.end_to_end_delay = 300 * kMillisecond;
  req.qos.preferred.delay_jitter = 10 * kMillisecond;   // audio's bound
  req.qos.preferred.packet_error_rate = 0.005;          // audio's bound
  req.qos.preferred.bit_error_rate = 1e-6;
  req.qos.worst = req.qos.preferred;
  req.buffer_osdus = 24;
  const auto vc = w.a->entity.t_connect_request(req);
  w.platform.run_until(500 * kMillisecond);

  MuxResult r;
  auto* source = w.a->entity.source(vc);
  auto* sink = w.b->entity.sink(vc);
  if (source == nullptr || sink == nullptr) return r;
  r.connected = true;
  r.reserved_bps = w.platform.network().reserved_on(w.a->id, w.b->id);
  r.audio_jitter_bound = source->agreed_qos().delay_jitter;

  // Drive interleaved traffic: per 40ms, 1 video frame + 2 audio blocks,
  // tagged via the event field (1 = video, 2 = audio).
  std::int64_t video_sent = 0, audio_sent = 0, video_got = 0, audio_got = 0;
  for (int tick = 0; tick < 750; ++tick) {
    video_sent += source->submit(media::make_frame(1, static_cast<std::uint32_t>(tick),
                                                   static_cast<std::size_t>(vq.frame_bytes())),
                                 1);
    for (int k = 0; k < 2; ++k)
      audio_sent += source->submit(
          media::make_frame(2, static_cast<std::uint32_t>(tick * 2 + k),
                            static_cast<std::size_t>(aq.block_bytes())),
          2);
    w.platform.run_until(w.platform.scheduler().now() + 40 * kMillisecond);
    while (auto o = sink->receive()) {
      if (o->event == 1) ++video_got;
      if (o->event == 2) ++audio_got;
    }
  }
  w.platform.run_until(w.platform.scheduler().now() + 2 * kSecond);
  while (auto o = sink->receive()) {
    if (o->event == 1) ++video_got;
    if (o->event == 2) ++audio_got;
  }
  r.video_loss_frac = 1.0 - static_cast<double>(video_got) /
                                static_cast<double>(std::max<std::int64_t>(1, video_sent));
  r.audio_loss_frac = 1.0 - static_cast<double>(audio_got) /
                                static_cast<double>(std::max<std::int64_t>(1, audio_sent));
  return r;
}

// Separate orchestrated VCs, each with its own media-appropriate QoS;
// audio uses the error-correcting class (its loss tolerance is strict),
// video uses detection-only (it tolerates loss).
MuxResult run_separate(double loss) {
  MuxWorld w(loss);
  AutoUser vsrc_user(w.a->entity), vdst_user(w.b->entity);
  AutoUser asrc_user(w.a->entity), adst_user(w.b->entity);
  w.a->entity.bind(1, &vsrc_user);
  w.b->entity.bind(2, &vdst_user);
  w.a->entity.bind(3, &asrc_user);
  w.b->entity.bind(4, &adst_user);

  platform::VideoQos vq;
  vq.frames_per_second = 25;
  platform::AudioQos aq;
  aq.blocks_per_second = 50;

  auto vreq = transport::ConnectRequest{};
  vreq.initiator = vreq.src = {w.a->id, 1};
  vreq.dst = {w.b->id, 2};
  vreq.qos = platform::to_transport_qos(vq);
  vreq.service_class.error_control = transport::ErrorControl::kIndicate;
  vreq.buffer_osdus = 16;
  auto areq = transport::ConnectRequest{};
  areq.initiator = areq.src = {w.a->id, 3};
  areq.dst = {w.b->id, 4};
  areq.qos = platform::to_transport_qos(aq);
  areq.service_class.error_control = transport::ErrorControl::kCorrect;
  areq.buffer_osdus = 16;
  const auto vvc = w.a->entity.t_connect_request(vreq);
  const auto avc = w.a->entity.t_connect_request(areq);
  w.platform.run_until(500 * kMillisecond);

  MuxResult r;
  auto* vsource = w.a->entity.source(vvc);
  auto* asource = w.a->entity.source(avc);
  auto* vsink = w.b->entity.sink(vvc);
  auto* asink = w.b->entity.sink(avc);
  if (!vsource || !asource) return r;
  r.connected = true;
  r.reserved_bps = w.platform.network().reserved_on(w.a->id, w.b->id);
  r.audio_jitter_bound = asource->agreed_qos().delay_jitter;

  std::int64_t video_sent = 0, audio_sent = 0, video_got = 0, audio_got = 0;
  for (int tick = 0; tick < 750; ++tick) {
    video_sent += vsource->submit(media::make_frame(
        1, static_cast<std::uint32_t>(tick), static_cast<std::size_t>(vq.frame_bytes())));
    for (int k = 0; k < 2; ++k)
      audio_sent += asource->submit(media::make_frame(
          2, static_cast<std::uint32_t>(tick * 2 + k),
          static_cast<std::size_t>(aq.block_bytes())));
    w.platform.run_until(w.platform.scheduler().now() + 40 * kMillisecond);
    while (vsink->receive()) ++video_got;
    while (asink->receive()) ++audio_got;
  }
  w.platform.run_until(w.platform.scheduler().now() + 2 * kSecond);
  while (vsink->receive()) ++video_got;
  while (asink->receive()) ++audio_got;
  r.video_loss_frac = 1.0 - static_cast<double>(video_got) /
                                static_cast<double>(std::max<std::int64_t>(1, video_sent));
  r.audio_loss_frac = 1.0 - static_cast<double>(audio_got) /
                                static_cast<double>(std::max<std::int64_t>(1, audio_sent));
  return r;
}

// ---------------------------------------------------------------------
// Data-plane throughput: wall-clock cost of moving media bytes through
// the stack.  A single demanding video VC (64 KiB OSDUs at 250/s) runs
// over a fat, clean link so the measurement is CPU-bound: it counts the
// per-fragment work of segmentation, encoding, link transit, reassembly
// and delivery — exactly what the zero-copy two-world split targets.
// ---------------------------------------------------------------------

struct PumpResult {
  std::int64_t delivered = 0;
  std::int64_t delivered_bytes = 0;
  double wall_s = 0;
  double allocs_per_osdu = 0;
  double allocs_per_tpdu = 0;
  bool connected = false;
};

PumpResult run_dataplane_pump() {
  constexpr std::size_t kOsduBytes = 64 * 1024;
  constexpr double kOsduRate = 250.0;
  constexpr Duration kWarmup = 1 * kSecond;
  constexpr Duration kPlay = 8 * kSecond;

  platform::Platform p(97);
  auto& a = p.add_host("src");
  auto& b = p.add_host("dst");
  net::LinkConfig link;
  link.bandwidth_bps = 1'000'000'000;
  link.propagation_delay = 1 * kMillisecond;
  link.media_batch_max = 32;  // batched media serialisation/delivery events
  p.network().add_link(a.id, b.id, link);
  p.network().finalize_routes();

  AutoUser src_user(a.entity), dst_user(b.entity);
  a.entity.bind(1, &src_user);
  b.entity.bind(2, &dst_user);
  auto req = basic_request({a.id, 1}, {b.id, 2}, kOsduRate,
                           static_cast<std::int64_t>(kOsduBytes));
  req.service_class.profile = transport::ProtocolProfile::kRateBasedCm;
  req.service_class.error_control = transport::ErrorControl::kIndicate;
  req.buffer_osdus = 64;
  req.pacing_burst = 32;  // one pacing tick drains a fragment burst
  const auto vc = a.entity.t_connect_request(req);
  p.run_until(500 * kMillisecond);

  PumpResult r;
  auto* source = a.entity.source(vc);
  auto* sink = b.entity.sink(vc);
  if (source == nullptr || sink == nullptr) return r;
  r.connected = true;

  // The media source writes the payload once; the pump re-submits the same
  // content every period (the transport must not care what the bytes are).
  // One immutable template frame; every submission shares it by refcount.
  const auto frame = media::make_frame_view(1, 0, kOsduBytes);

  auto pump_for = [&](Duration dur) {
    const Time until = p.scheduler().now() + dur;
    while (p.scheduler().now() < until) {
      while (source->submit(frame)) {
      }
      p.run_until(p.scheduler().now() + 20 * kMillisecond);
      while (auto o = sink->receive()) {
        ++r.delivered;
        r.delivered_bytes += static_cast<std::int64_t>(o->data.size());
      }
    }
  };

  pump_for(kWarmup);  // fill the pipeline before the clock starts
  r.delivered = 0;
  r.delivered_bytes = 0;
  const std::int64_t tpdus0 = source->stats().tpdus_sent;
  const std::int64_t allocs0 = heap_allocs();
  const auto wall0 = std::chrono::steady_clock::now();
  pump_for(kPlay);
  const auto wall1 = std::chrono::steady_clock::now();
  const std::int64_t allocs1 = heap_allocs();
  const std::int64_t tpdus = source->stats().tpdus_sent - tpdus0;
  r.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  r.allocs_per_osdu = static_cast<double>(allocs1 - allocs0) /
                      static_cast<double>(std::max<std::int64_t>(1, r.delivered));
  // Per data TPDU: one heap buffer per packet (a header that does not fit
  // inline, a per-packet queue node) alone would put this at >= 1.
  r.allocs_per_tpdu = static_cast<double>(allocs1 - allocs0) /
                      static_cast<double>(std::max<std::int64_t>(1, tpdus));
  return r;
}

}  // namespace
}  // namespace cmtos::bench

int main(int argc, char** argv) {
  using namespace cmtos;
  using namespace cmtos::bench;
  BenchJson bj("bench_multiplex", argc, argv);

  title("Combined QoS cost of multiplexing",
        "§3.6 / [Tennenhouse,90]: one multiplexed VC must carry every medium at the most "
        "demanding medium's QoS");
  {
    const auto mux = run_multiplexed(0.0);
    const auto sep = run_separate(0.0);
    row("%-26s %18s %22s", "arrangement", "reserved Mbit/s", "audio jitter bound");
    row("%-26s %18.3f %22s", "single multiplexed VC",
        static_cast<double>(mux.reserved_bps) / 1e6, format_time(mux.audio_jitter_bound).c_str());
    row("%-26s %18.3f %22s", "separate VCs (A/V)",
        static_cast<double>(sep.reserved_bps) / 1e6, format_time(sep.audio_jitter_bound).c_str());
    bj.set("multiplex.reserved_mbps", static_cast<double>(mux.reserved_bps) / 1e6,
           {{"arrangement", "multiplexed"}});
    bj.set("multiplex.reserved_mbps", static_cast<double>(sep.reserved_bps) / 1e6,
           {{"arrangement", "separate"}});
    row("%s", "");
    row("Expectation: the mux VC reserves for 75/s of *video-sized* OSDUs (audio blocks");
    row("ride in slots sized for frames), costing far more bandwidth than the sum of the");
    row("two tailored reservations.");
  }

  title("Loss behaviour: per-medium error control is impossible on one VC",
        "§3.4 + §3.6: separate VCs let audio use error correction while video tolerates loss");
  row("%-10s %-26s %16s %16s", "link loss", "arrangement", "video loss %", "audio loss %");
  for (double loss : {0.02, 0.05}) {
    const auto mux = run_multiplexed(loss);
    const auto sep = run_separate(loss);
    row("%-10.2f %-26s %16.2f %16.2f", loss, "single multiplexed VC", mux.video_loss_frac * 100,
        mux.audio_loss_frac * 100);
    row("%-10.2f %-26s %16.2f %16.2f", loss, "separate VCs (A/V)", sep.video_loss_frac * 100,
        sep.audio_loss_frac * 100);
  }
  row("%s", "");
  row("Expectation: on the mux VC both media see the raw loss rate (one error-control");
  row("class for all); with separate VCs audio's correcting class recovers nearly");
  row("everything while video cheaply tolerates its losses.");

  title("Data-plane throughput",
        "steady-state cost per delivered OSDU: 64 KiB OSDUs at 250/s over a clean 1 Gbit/s "
        "link, wall-clock measured");
  {
    const auto pump = run_dataplane_pump();
    row("%-22s %14s %16s %16s %16s", "delivered OSDUs", "OSDU/wall-s", "MB/wall-s",
        "allocs/OSDU", "allocs/TPDU");
    const double osdus_per_s =
        static_cast<double>(pump.delivered) / std::max(1e-9, pump.wall_s);
    const double mb_per_s = static_cast<double>(pump.delivered_bytes) / 1e6 /
                            std::max(1e-9, pump.wall_s);
    row("%-22lld %14.0f %16.1f %16.1f %16.3f", static_cast<long long>(pump.delivered),
        osdus_per_s, mb_per_s, pump.allocs_per_osdu, pump.allocs_per_tpdu);
    bj.set("multiplex.dataplane_osdus_per_wall_s", osdus_per_s);
    bj.set("multiplex.dataplane_mbytes_per_wall_s", mb_per_s);
    bj.set("multiplex.dataplane_allocs_per_osdu", pump.allocs_per_osdu);
    bj.set("multiplex.dataplane_allocs_per_tpdu", pump.allocs_per_tpdu);
  }
  return 0;
}
