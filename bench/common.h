// Shared infrastructure for the experiment harnesses: canned topologies,
// scripted users, the film-playout world, and table printing.
//
// Each bench binary regenerates one table/figure-equivalent from the
// paper's design (see DESIGN.md §3 for the index).  The output format is a
// titled ASCII table: deterministic, diffable, and recorded in
// EXPERIMENTS.md.

#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "media/live_source.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/trace.h"
#include "media/sink.h"
#include "media/stored_server.h"
#include "media/sync_meter.h"
#include "platform/host.h"
#include "platform/stream.h"

namespace cmtos::bench {

/// Machine-readable bench output.  Every table bench constructs one of
/// these from (argc, argv); the ASCII tables stay the primary output, and:
///
///   --json <path>    on exit, dump the global metrics registry (headline
///                    gauges set via set() plus everything the stack
///                    recorded during the run) as a JSON snapshot;
///   --trace <path>   record a Chrome trace-event file of the whole run
///                    (load in chrome://tracing or Perfetto).
class BenchJson {
 public:
  BenchJson(std::string bench, int argc, char** argv) : bench_(std::move(bench)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) json_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--trace") == 0) trace_path_ = argv[i + 1];
    }
    if (!trace_path_.empty() && !obs::Tracer::global().start(trace_path_))
      std::fprintf(stderr, "warning: cannot open trace file %s\n", trace_path_.c_str());
  }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { finish(); }

  /// Records one headline metric (gauge labelled with the bench name).
  void set(const std::string& name, double value, const obs::Labels& extra = {}) {
    obs::Labels labels = {{"bench", bench_}};
    labels.insert(labels.end(), extra.begin(), extra.end());
    obs::Registry::global().set_gauge(name, value, labels);
  }

  /// Writes the outputs (idempotent; also runs from the destructor).
  void finish() {
    if (finished_) return;
    finished_ = true;
    if (!trace_path_.empty()) obs::Tracer::global().stop();
    if (json_path_.empty()) return;
    obs::Labels meta = {{"bench", bench_}};
    for (auto& kv : obs::run_meta()) meta.push_back(std::move(kv));
    if (obs::Registry::global().write_json(json_path_, meta)) {
      std::printf("\n[metrics written to %s]\n", json_path_.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write metrics to %s\n", json_path_.c_str());
    }
  }

 private:
  std::string bench_;
  std::string json_path_;
  std::string trace_path_;
  bool finished_ = false;
};

inline void title(const std::string& name, const std::string& artifact) {
  std::printf("\n=== %s ===\n", name.c_str());
  std::printf("(reproduces: %s)\n\n", artifact.c_str());
}

inline void row(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

inline net::LinkConfig lan_link() {
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10'000'000;
  cfg.propagation_delay = 1 * kMillisecond;
  return cfg;
}

/// Transport user that auto-accepts everything and records nothing.
class AutoUser : public transport::TransportUser {
 public:
  explicit AutoUser(transport::TransportEntity& entity) : entity_(&entity) {}
  void t_connect_indication(transport::VcId vc, const transport::ConnectRequest&) override {
    entity_->connect_response(vc, true);
  }
  void t_connect_confirm(transport::VcId vc, const transport::QosParams& q) override {
    confirmed = true;
    last_vc = vc;
    agreed = q;
  }
  void t_disconnect_indication(transport::VcId, transport::DisconnectReason r) override {
    disconnected = true;
    reason = r;
  }
  void t_qos_indication(transport::VcId, const transport::QosReport& rep) override {
    ++qos_indications;
    last_report = rep;
  }
  void t_renegotiate_indication(transport::VcId vc, const transport::QosTolerance&) override {
    entity_->renegotiate_response(vc, true);
  }
  void t_renegotiate_confirm(transport::VcId, bool ok, const transport::QosParams& q) override {
    reneg_confirmed = ok;
    agreed = q;
  }

  bool confirmed = false;
  bool disconnected = false;
  bool reneg_confirmed = false;
  int qos_indications = 0;
  transport::VcId last_vc = transport::kInvalidVc;
  transport::QosParams agreed;
  transport::QosReport last_report;
  transport::DisconnectReason reason = transport::DisconnectReason::kUserInitiated;

 private:
  transport::TransportEntity* entity_;
};

inline transport::ConnectRequest basic_request(net::NetAddress src, net::NetAddress dst,
                                               double rate = 25.0, std::int64_t size = 4096) {
  transport::ConnectRequest req;
  req.initiator = src;
  req.src = src;
  req.dst = dst;
  req.qos.preferred.osdu_rate = rate;
  req.qos.preferred.max_osdu_bytes = size;
  req.qos.preferred.end_to_end_delay = 200 * kMillisecond;
  req.qos.preferred.delay_jitter = 50 * kMillisecond;
  req.qos.preferred.packet_error_rate = 0.02;
  req.qos.preferred.bit_error_rate = 1e-5;
  req.qos.worst = req.qos.preferred;
  req.qos.worst.osdu_rate = rate / 4;
  req.qos.worst.end_to_end_delay = kSecond;
  req.qos.worst.delay_jitter = 200 * kMillisecond;
  req.qos.worst.packet_error_rate = 0.1;
  req.qos.worst.bit_error_rate = 1e-3;
  return req;
}

/// The film-playout world (the paper's motivating lip-sync example): video
/// and audio tracks on separate storage servers with opposite clock
/// drifts, rendered on one workstation, orchestration optional.
struct FilmWorld {
  FilmWorld(double differential_drift_ppm, std::uint64_t seed = 4242,
            net::LinkConfig link = lan_link())
      : platform(seed) {
    video_server_host =
        &platform.add_host("video-server", sim::LocalClock(0, differential_drift_ppm / 2));
    audio_server_host =
        &platform.add_host("audio-server", sim::LocalClock(0, -differential_drift_ppm / 2));
    ws = &platform.add_host("ws");
    platform.network().add_link(video_server_host->id, ws->id, link);
    platform.network().add_link(audio_server_host->id, ws->id, link);
    platform.network().finalize_routes();

    // Frame sizes match the negotiated maxima exactly, so the byte-based
    // rate pacer's OSDU rate equals the contract rate and the servers'
    // clock drift translates 1:1 into stream rate (the experiment's
    // independent variable).  VBR behaviour is exercised elsewhere.
    platform::VideoQos vq;
    vq.frames_per_second = 25;
    platform::AudioQos aq;
    aq.blocks_per_second = 50;

    video_server =
        std::make_unique<media::StoredMediaServer>(platform, *video_server_host, "video-store");
    media::TrackConfig video;
    video.track_id = 1;
    video.auto_start = false;
    video.vbr.base_bytes = vq.frame_bytes();
    video.vbr.gop = 0;
    video.vbr.wobble = 0;
    video_src = video_server->add_track(100, video);

    audio_server =
        std::make_unique<media::StoredMediaServer>(platform, *audio_server_host, "audio-store");
    media::TrackConfig audio;
    audio.track_id = 2;
    audio.auto_start = false;
    audio.vbr.base_bytes = aq.block_bytes();
    audio.vbr.gop = 0;
    audio.vbr.wobble = 0;
    audio_src = audio_server->add_track(101, audio);

    media::RenderConfig vr;
    vr.expect_track = 1;
    video_sink = std::make_unique<media::RenderingSink>(platform, *ws, 200, vr);
    media::RenderConfig ar;
    ar.expect_track = 2;
    audio_sink = std::make_unique<media::RenderingSink>(platform, *ws, 201, ar);

    vstream = std::make_unique<platform::Stream>(platform, *ws, "film-video");
    astream = std::make_unique<platform::Stream>(platform, *ws, "film-audio");
    vstream->set_buffer_osdus(8);
    astream->set_buffer_osdus(8);
    vstream->connect(video_src, {ws->id, 200}, vq, {}, nullptr);
    astream->connect(audio_src, {ws->id, 201}, aq, {}, nullptr);
    platform.run_until(500 * kMillisecond);
  }

  /// Starts the group atomically but with no continuous regulation — the
  /// free-running baseline (streams drift apart per their clocks).
  void start_free_running() {
    orch::OrchPolicy policy;
    policy.regulate = false;
    free_session = orchestrate(policy, 0);
  }

  /// Orchestrates (establish + prime + start) and returns the session.
  std::unique_ptr<orch::OrchSession> orchestrate(orch::OrchPolicy policy,
                                                 std::uint32_t max_drop = 2) {
    auto session = platform.orchestrator().orchestrate(
        {vstream->orch_spec(max_drop), astream->orch_spec(max_drop)}, policy, nullptr);
    platform.run_until(platform.scheduler().now() + 500 * kMillisecond);
    session->prime(false, nullptr);
    platform.run_until(platform.scheduler().now() + 1500 * kMillisecond);
    session->start(nullptr);
    platform.run_until(platform.scheduler().now() + 200 * kMillisecond);
    return session;
  }

  /// Measures skew over `dur` with 100 ms sampling; returns the meter.
  std::unique_ptr<media::SyncMeter> measure(Duration dur) {
    auto meter = std::make_unique<media::SyncMeter>(platform.scheduler());
    meter->add_stream("video", video_sink.get());
    meter->add_stream("audio", audio_sink.get());
    meter->begin(100 * kMillisecond);
    platform.run_until(platform.scheduler().now() + dur);
    return meter;
  }

  platform::Platform platform;
  platform::Host* video_server_host = nullptr;
  platform::Host* audio_server_host = nullptr;
  platform::Host* ws = nullptr;
  std::unique_ptr<media::StoredMediaServer> video_server, audio_server;
  std::unique_ptr<media::RenderingSink> video_sink, audio_sink;
  std::unique_ptr<platform::Stream> vstream, astream;
  std::unique_ptr<orch::OrchSession> free_session;
  net::NetAddress video_src, audio_src;
};

}  // namespace cmtos::bench
