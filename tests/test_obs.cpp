// Observability layer tests: JSON helpers, the metrics registry, the
// Chrome-trace tracer, the QoS monitor's BER estimator, warmup flag and
// trace identity, and an end-to-end orchestrated session traced to disk.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>

#include "fixtures.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/monitor.h"

namespace cmtos::test {
namespace {

using obs::json_escape;
using obs::json_number;
using obs::json_valid;
using obs::Labels;
using obs::Registry;
using obs::Tracer;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- JSON helpers ---

TEST(ObsJson, EscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ObsJson, NumberIsAlwaysAValidToken) {
  EXPECT_TRUE(json_valid(json_number(0.0)));
  EXPECT_TRUE(json_valid(json_number(-12.5)));
  EXPECT_TRUE(json_valid(json_number(4.96e-4)));
  EXPECT_TRUE(json_valid(json_number(1e300)));
  // JSON has no NaN/Inf: the writer must degrade to null.
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(1.0 / 0.0 * 1.0), "null");
}

TEST(ObsJson, ValidatorAcceptsWellFormed) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[]"));
  EXPECT_TRUE(json_valid("  {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": null}} "));
  EXPECT_TRUE(json_valid("\"just a string\""));
  EXPECT_TRUE(json_valid("true"));
}

TEST(ObsJson, ValidatorRejectsMalformed) {
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\": 1,}"));   // trailing comma
  EXPECT_FALSE(json_valid("{'a': 1}"));      // single quotes
  EXPECT_FALSE(json_valid("{a: 1}"));        // unquoted key
  EXPECT_FALSE(json_valid("[1, 2] trailing"));
  EXPECT_FALSE(json_valid("[01]"));          // leading zero
}

// --- metrics registry ---

TEST(ObsRegistry, LabelsAreIdentity) {
  Registry reg;
  auto& a = reg.counter("x", {{"vc", "1"}});
  auto& b = reg.counter("x", {{"vc", "2"}});
  auto& a2 = reg.counter("x", {{"vc", "1"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &a2);
  a.add(3);
  EXPECT_EQ(a2.value(), 3);
  EXPECT_EQ(b.value(), 0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, TotalSumsCounterAcrossLabelSetsOnly) {
  Registry reg;
  EXPECT_EQ(reg.total("x"), 0);
  reg.counter("x").add(1);
  reg.counter("x", {{"vc", "1"}}).add(2);
  reg.counter("x", {{"vc", "2"}, {"node", "3"}}).add(4);
  reg.counter("x.y").add(100);  // longer name sharing the prefix
  reg.counter("xy").add(100);
  reg.counter("w").add(100);
  reg.set_gauge("x2", 5.0);
  EXPECT_EQ(reg.total("x"), 7);
  EXPECT_EQ(reg.total("x.y"), 100);
  EXPECT_EQ(reg.total("x2"), 0);  // gauges are not counters
}

TEST(ObsRegistry, KindMismatchThrows) {
  Registry reg;
  reg.counter("metric");
  EXPECT_THROW(reg.gauge("metric"), std::logic_error);
}

TEST(ObsRegistry, GaugeAndSetGauge) {
  Registry reg;
  reg.set_gauge("g", 2.5, {{"k", "v"}});
  EXPECT_DOUBLE_EQ(reg.gauge("g", {{"k", "v"}}).value(), 2.5);
  reg.set_gauge("g", -1.0, {{"k", "v"}});
  EXPECT_DOUBLE_EQ(reg.gauge("g", {{"k", "v"}}).value(), -1.0);
}

TEST(ObsRegistry, HistogramStats) {
  Registry reg;
  auto& h = reg.histogram("lat");
  for (double v : {1.0, 2.0, 4.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 26.75);
  // Quantiles return bucket upper bounds: p50 of {1,2,4,100} <= 4.
  EXPECT_LE(h.quantile(0.5), 4.0);
  EXPECT_GE(h.quantile(0.99), 100.0);
}

TEST(ObsRegistry, SnapshotIsValidJson) {
  Registry reg;
  reg.counter("c", {{"vc", "1"}, {"node", "2"}}).add(7);
  reg.set_gauge("g \"quoted\"", 1.5);
  reg.histogram("h").observe(3.0);
  const std::string snap = reg.to_json({{"bench", "unit"}});
  EXPECT_TRUE(json_valid(snap)) << snap;
  EXPECT_NE(snap.find("\"bench\""), std::string::npos);
  EXPECT_NE(snap.find("\"vc\""), std::string::npos);
}

TEST(ObsRegistry, WriteJsonRoundTrips) {
  Registry reg;
  reg.counter("written").add(42);
  const std::string path = ::testing::TempDir() + "obs_registry_roundtrip.json";
  ASSERT_TRUE(reg.write_json(path, {{"run", "t"}}));
  const std::string text = slurp(path);
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("written"), std::string::npos);
  std::remove(path.c_str());
}

// --- tracer ---

// Per-VC values live in the VC (VcStats): every endpoint adds to its node's
// {node, role} rows, so the registry size depends neither on VC churn nor on
// the number of concurrent VCs, and every counter total stays exact.
TEST(ObsRegistry, VcChurnKeepsRegistryBoundedAndTotalsExact) {
  constexpr int kLive = 20;
  constexpr int kChurn = 1000;
  constexpr int kMoreLive = 200;
  net::LinkConfig link = lan_link();
  link.bandwidth_bps = 100'000'000;
  PairPlatform w(link);
  ScriptedUser src_user(w.a->entity), dst_user(w.b->entity);
  w.a->entity.bind(1, &src_user);
  w.b->entity.bind(2, &dst_user);
  auto& reg = Registry::global();
  const auto totals = [&reg] {
    return std::array<std::int64_t, 3>{reg.total("transport.tpdus_sent"),
                                       reg.total("transport.tpdus_received"),
                                       reg.total("transport.osdus_delivered")};
  };
  const auto totals0 = totals();
  obs::Counter& node_delivered = reg.counter(
      "transport.osdus_delivered", {{"node", std::to_string(w.b->id)}, {"role", "sink"}});
  const std::int64_t delivered0 = node_delivered.value();

  std::deque<transport::VcId> live;
  Time t = 0;
  std::int64_t osdus = 0;
  // Opens one VC, sends one OSDU over it and reads it at the sink.
  const auto open_one = [&] {
    live.push_back(w.a->entity.t_connect_request(
        basic_request({w.a->id, 1}, {w.b->id, 2}, 50.0, 256)));
    w.platform.run_until(t += 10 * kMillisecond);
    transport::Connection* src = w.a->entity.source(live.back());
    ASSERT_NE(src, nullptr);
    ASSERT_TRUE(src->submit(std::vector<std::uint8_t>(100, 1)));
    w.platform.run_until(t += 10 * kMillisecond);
    transport::Connection* snk = w.b->entity.sink(live.back());
    ASSERT_NE(snk, nullptr);
    ASSERT_TRUE(snk->receive().has_value());
    ++osdus;
  };
  const auto churn_one = [&] {
    w.a->entity.t_disconnect_request(live.front());
    live.pop_front();
    open_one();
  };
  for (int i = 0; i < kLive; ++i) open_one();
  for (int i = 0; i < 10; ++i) churn_one();
  w.platform.run_until(t += 100 * kMillisecond);
  const std::size_t size_warm = reg.size();
  for (int i = 10; i < kChurn; ++i) churn_one();
  w.platform.run_until(t += 100 * kMillisecond);
  EXPECT_EQ(reg.size(), size_warm);
  for (int i = 0; i < kMoreLive; ++i) open_one();  // kLive + kMoreLive concurrent
  w.platform.run_until(t += 100 * kMillisecond);
  EXPECT_EQ(live.size(), static_cast<std::size_t>(kLive + kMoreLive));
  EXPECT_EQ(reg.size(), size_warm);

  const auto totals1 = totals();
  for (std::size_t i = 0; i < totals1.size(); ++i) EXPECT_EQ(totals1[i] - totals0[i], osdus);
  EXPECT_EQ(osdus, kLive + kChurn + kMoreLive);
  EXPECT_EQ(node_delivered.value() - delivered0, osdus);
}

TEST(ObsTracer, WritesValidChromeTrace) {
  auto& tr = Tracer::global();
  const std::string path = ::testing::TempDir() + "obs_tracer_unit.json";
  ASSERT_TRUE(tr.start(path));
  EXPECT_TRUE(tr.enabled());
  tr.begin("work", 1, 2);
  tr.end("work", 1, 2);
  const auto id = tr.next_async_id();
  tr.async_begin("span", id, 1, 2);
  tr.async_end("span", id, 1, 2);
  tr.instant("mark", 1, 2, "{\"k\": 1}");
  tr.counter("track", 3.5, 1, 2);
  tr.stop();
  EXPECT_FALSE(tr.enabled());

  const std::string text = slurp(path);
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"span\""), std::string::npos);
  EXPECT_NE(text.find("\"mark\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTracer, DisabledTracerWritesNothing) {
  auto& tr = Tracer::global();
  ASSERT_FALSE(tr.enabled());
  const auto before = tr.events_written();
  tr.instant("ignored");
  EXPECT_EQ(tr.events_written(), before);
}

// --- QoS monitor: BER estimator (regression) and warmup flag ---

transport::QosParams monitor_contract() {
  transport::QosParams p;
  p.osdu_rate = 50;
  p.max_osdu_bytes = 1024;
  p.end_to_end_delay = 100 * kMillisecond;
  p.delay_jitter = 20 * kMillisecond;
  p.packet_error_rate = 0.01;
  p.bit_error_rate = 1e-6;
  return p;
}

TEST(QosMonitorBer, HighCorruptionStaysInPerBitMagnitude) {
  // Regression for the BER unit mismatch: 993 of 1000 TPDUs of 1250 bytes
  // (10^4 bits) corrupt corresponds, under iid bit errors, to a per-bit
  // rate of p = 1 - (1-0.993)^(1/10^4) ~ 4.96e-4.  The old computation
  // divided the corrupt *packet* count by the received-only *bit* count
  // (993 / 7e4 ~ 1.4e-2), a factor ~30 off and trending to infinity as the
  // good-packet count shrinks.
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  transport::QosReport rep;
  m.set_on_sample([&](const transport::QosReport& r) { rep = r; });
  m.begin(0);
  for (int i = 0; i < 7; ++i) m.on_tpdu_received(1250);
  for (int i = 0; i < 993; ++i) m.on_tpdu_corrupt(1250);
  m.end_period(1 * kSecond);
  EXPECT_GT(rep.measured_bit_error_rate, 1e-4);
  EXPECT_LT(rep.measured_bit_error_rate, 1e-3);
  EXPECT_NEAR(rep.measured_bit_error_rate, 4.96e-4, 5e-5);
}

TEST(QosMonitorBer, LowCorruptionMatchesOneFlippedBitPerTpdu) {
  // Small-f limit: f/B, i.e. ~one flipped bit per corrupt TPDU.
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  transport::QosReport rep;
  m.set_on_sample([&](const transport::QosReport& r) { rep = r; });
  m.begin(0);
  for (int i = 0; i < 999; ++i) m.on_tpdu_received(1250);
  m.on_tpdu_corrupt(1250);
  m.end_period(1 * kSecond);
  EXPECT_NEAR(rep.measured_bit_error_rate, 1e-7, 2e-8);
}

TEST(QosMonitorBer, AllCorruptPeriodStaysFinite) {
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  transport::QosReport rep;
  m.set_on_sample([&](const transport::QosReport& r) { rep = r; });
  m.begin(0);
  for (int i = 0; i < 50; ++i) m.on_tpdu_corrupt(1250);
  m.end_period(1 * kSecond);
  EXPECT_GT(rep.measured_bit_error_rate, 0.0);
  EXPECT_LT(rep.measured_bit_error_rate, 1e-2);
}

TEST(QosMonitorBer, CleanPeriodIsZero) {
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  transport::QosReport rep;
  rep.measured_bit_error_rate = 1.0;
  m.set_on_sample([&](const transport::QosReport& r) { rep = r; });
  m.begin(0);
  for (int i = 0; i < 50; ++i) m.on_tpdu_received(1250);
  m.end_period(1 * kSecond);
  EXPECT_DOUBLE_EQ(rep.measured_bit_error_rate, 0.0);
}

TEST(QosMonitorWarmup, ReportsAreFlaggedAndSuppressed) {
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  m.set_warmup_periods(1);
  std::vector<transport::QosReport> samples;
  int violations = 0;
  m.set_on_sample([&](const transport::QosReport& r) { samples.push_back(r); });
  m.set_on_violation([&](const transport::QosReport&) { ++violations; });
  m.begin(0);

  auto violate = [&] {
    for (std::uint32_t s = 0; s < 50; ++s) m.on_osdu_seen(s);
    for (int i = 0; i < 10; ++i) m.on_osdu_completed(10 * kMillisecond);
  };
  violate();
  m.end_period(1 * kSecond);  // warmup period: flagged, not indicated
  violate();
  m.end_period(2 * kSecond);  // live period: indicated

  ASSERT_EQ(samples.size(), 2u);
  EXPECT_TRUE(samples[0].warmup);
  EXPECT_TRUE(samples[0].violations.any());
  EXPECT_FALSE(samples[1].warmup);
  EXPECT_EQ(violations, 1);
}

// --- QoS monitor: trace identity ---

// pid/tid of the first trace event named `name` (on `tid` when given), or
// {-1, -1} when there is none.  One event per line, as Tracer::emit writes.
std::pair<int, int> trace_ids(const std::string& text, const std::string& name, int tid = -1) {
  std::istringstream in(text);
  std::string line;
  const std::string key = "{\"name\": \"" + name + "\"";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    int pid = -1, line_tid = -1;
    if (std::sscanf(line.c_str() + line.find("\"pid\""), "\"pid\": %d, \"tid\": %d", &pid,
                    &line_tid) != 2)
      continue;
    if (tid < 0 || line_tid == tid) return {pid, line_tid};
  }
  return {-1, -1};
}

// A remote connect allocates the VC id on the initiator, a third node; the
// QoS tracks must still sit on the sink node, beside the VC's sink span.
TEST(QosMonitorTrace, TracksSitOnTheSinkNodeOfARemoteConnect) {
  auto& tr = Tracer::global();
  const std::string path = ::testing::TempDir() + "obs_qos_pid.json";
  ASSERT_TRUE(tr.start(path));
  int sink_node = -1;
  {
    StarPlatform star(3);
    auto& src = *star.leaves[0];
    auto& dst = *star.leaves[1];
    auto& ini = *star.leaves[2];
    ScriptedUser src_user(src.entity), dst_user(dst.entity), ini_user(ini.entity);
    src.entity.bind(10, &src_user);
    dst.entity.bind(20, &dst_user);
    ini.entity.bind(30, &ini_user);
    sink_node = static_cast<int>(dst.id);

    auto req = basic_request({src.id, 10}, {dst.id, 20}, 25.0, 1024);
    req.initiator = {ini.id, 30};
    req.sample_period = 200 * kMillisecond;
    const transport::VcId vc = ini.entity.t_connect_request(req);
    star.platform.run_until(300 * kMillisecond);
    ASSERT_NE(src.entity.source(vc), nullptr);
    ASSERT_NE(static_cast<int>(vc >> 32), sink_node);  // the allocator is not the sink
    for (int i = 0; i < 10; ++i) {
      (void)src.entity.source(vc)->submit(std::vector<std::uint8_t>(500, 1));
      star.platform.run_until(star.platform.scheduler().now() + 100 * kMillisecond);
      while (dst.entity.sink(vc) && dst.entity.sink(vc)->receive()) {
      }
    }
  }
  tr.stop();

  const std::string text = slurp(path);
  const auto [qos_pid, qos_tid] = trace_ids(text, "qos.osdu_rate");
  ASSERT_GE(qos_pid, 0) << "no qos.osdu_rate track in the trace";
  const auto [sink_pid, sink_tid] = trace_ids(text, "VC.sink", qos_tid);
  ASSERT_GE(sink_pid, 0) << "no VC.sink span for tid " << qos_tid;
  EXPECT_EQ(qos_pid, sink_pid);
  EXPECT_EQ(qos_pid, sink_node);
  std::remove(path.c_str());
}

// --- end-to-end: an orchestrated two-VC session traced to disk ---

TEST(ObsIntegration, OrchestratedSessionEmitsTraceSpans) {
  auto& tr = Tracer::global();
  const std::string path = ::testing::TempDir() + "obs_orch_session.json";
  ASSERT_TRUE(tr.start(path));

  {
    // The film scenario: video + audio servers, one workstation sink.
    platform::Platform platform(4242);
    auto& vhost = platform.add_host("video-server");
    auto& ahost = platform.add_host("audio-server");
    auto& ws = platform.add_host("ws");
    platform.network().add_link(vhost.id, ws.id, lan_link());
    platform.network().add_link(ahost.id, ws.id, lan_link());
    platform.network().finalize_routes();

    platform::VideoQos vq;
    vq.frames_per_second = 25;
    platform::AudioQos aq;
    aq.blocks_per_second = 50;

    media::StoredMediaServer vserver(platform, vhost, "film-video");
    media::TrackConfig video;
    video.track_id = 1;
    video.auto_start = false;
    video.vbr.base_bytes = vq.frame_bytes();
    video.vbr.gop = 0;
    video.vbr.wobble = 0;
    const auto vsrc = vserver.add_track(100, video);
    media::StoredMediaServer aserver(platform, ahost, "film-audio");
    media::TrackConfig audio;
    audio.track_id = 2;
    audio.auto_start = false;
    audio.vbr.base_bytes = aq.block_bytes();
    audio.vbr.gop = 0;
    audio.vbr.wobble = 0;
    const auto asrc = aserver.add_track(101, audio);

    media::RenderConfig vr;
    vr.expect_track = 1;
    media::RenderingSink vsink(platform, ws, 200, vr);
    media::RenderConfig ar;
    ar.expect_track = 2;
    media::RenderingSink asink(platform, ws, 201, ar);

    platform::Stream vstream(platform, ws, "v");
    platform::Stream astream(platform, ws, "a");
    vstream.set_buffer_osdus(6);
    astream.set_buffer_osdus(6);
    vstream.connect(vsrc, {ws.id, 200}, vq, {}, nullptr);
    astream.connect(asrc, {ws.id, 201}, aq, {}, nullptr);
    platform.run_until(500 * kMillisecond);
    ASSERT_TRUE(vstream.connected());
    ASSERT_TRUE(astream.connected());

    orch::OrchPolicy policy;
    policy.interval = 100 * kMillisecond;
    bool established = false;
    auto session = platform.orchestrator().orchestrate(
        {vstream.orch_spec(2), astream.orch_spec(2)}, policy,
        [&](bool ok, orch::OrchReason) { established = ok; });
    platform.run_until(kSecond);
    ASSERT_TRUE(established);

    bool primed = false, started = false;
    session->prime(false, [&](bool ok, auto) { primed = ok; });
    platform.run_until(2 * kSecond);
    ASSERT_TRUE(primed);
    session->start([&](bool ok, auto) { started = ok; });
    platform.run_until(2500 * kMillisecond);
    ASSERT_TRUE(started);
    // Several regulation intervals.
    platform.run_until(platform.scheduler().now() + 3 * kSecond);
  }

  tr.stop();
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(json_valid(text)) << "trace is not valid JSON";
  EXPECT_NE(text.find("\"Orch.Prime\""), std::string::npos);
  EXPECT_NE(text.find("\"Orch.Start\""), std::string::npos);
  EXPECT_NE(text.find("\"Orch.Regulate\""), std::string::npos);
  EXPECT_NE(text.find("\"TPDU.tx\""), std::string::npos);
  EXPECT_NE(text.find("\"HLO.interval_tick\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmtos::test
