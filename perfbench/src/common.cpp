#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "media/content.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/frame_pool.h"

namespace perfbench {

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return -1;
}

// --- spans -------------------------------------------------------------------

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSetup: return "bench.setup";
    case SpanKind::kWindow: return "bench.window";
    case SpanKind::kBlock: return "bench.block";
    case SpanKind::kRunUntil: return "sim.run_until";
    case SpanKind::kSubmit: return "transport.submit";
    case SpanKind::kReceive: return "transport.receive";
    case SpanKind::kConnect: return "transport.connect";
    case SpanKind::kDisconnect: return "transport.disconnect";
    case SpanKind::kOrchestrate: return "orch.orchestrate";
    case SpanKind::kPrime: return "orch.prime";
    case SpanKind::kStart: return "orch.start";
    case SpanKind::kBuild: return "platform.build";
    case SpanKind::kStreamConnect: return "platform.stream_connect";
    case SpanKind::kSnapshot: return "obs.snapshot";
  }
  return "?";
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, SpanKind kind) : rec_(rec) {
  if (rec_ == nullptr) return;
  Span s;
  s.kind = kind;
  s.parent = rec_->current_;
  s.run = rec_->run_;
  index_ = static_cast<std::int32_t>(rec_->spans_.size());
  saved_parent_ = rec_->current_;
  rec_->current_ = index_;
  rec_->spans_.push_back(s);
  rec_->spans_.back().start_ns = wall_ns();
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->spans_[static_cast<std::size_t>(index_)].end_ns = wall_ns();
  rec_->current_ = saved_parent_;
}

std::vector<double> SpanRecorder::durations_us(SpanKind kind) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.kind == kind) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

double SpanRecorder::total_s(SpanKind kind) const {
  double t = 0;
  for (const Span& s : spans_)
    if (s.kind == kind) t += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return t;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%u}}\n",
                 i == 0 ? "" : ",", span_name(s.kind),
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.run);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

SpanRecorder& spans() {
  static SpanRecorder rec;
  return rec;
}

// --- statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void Report::set_latencies(const std::vector<double>& delay_ms,
                           const std::vector<double>& connect_ms) {
  set("osdu_delay_ms_p50", quantile(delay_ms, 0.5), "sim_ms");
  set("osdu_delay_ms_p99", quantile(delay_ms, 0.99), "sim_ms");
  set("connect_ms_p50", quantile(connect_ms, 0.5), "sim_ms");
  set("connect_ms_p95", quantile(connect_ms, 0.95), "sim_ms");
  notes.push_back("samples: osdu_delay " + std::to_string(delay_ms.size()) + ", connect " +
                  std::to_string(connect_ms.size()));
}

// --- transport helpers ---------------------------------------------------------

transport::VcId TimedUser::connect(const transport::ConnectRequest& req) {
  const std::int64_t a0 = heap_allocs();
  transport::VcId vc;
  {
    PB_SPAN(SpanKind::kConnect);
    vc = entity_->t_connect_request(req);
  }
  call_allocs += heap_allocs() - a0;
  ++calls;
  if (vc != transport::kInvalidVc && record_connects)
    requested_[vc] = platform_->scheduler().now();
  return vc;
}

void TimedUser::disconnect(transport::VcId vc) {
  const std::int64_t a0 = heap_allocs();
  {
    PB_SPAN(SpanKind::kDisconnect);
    entity_->t_disconnect_request(vc);
  }
  call_allocs += heap_allocs() - a0;
  ++calls;
}

void TimedUser::t_connect_confirm(transport::VcId vc, const transport::QosParams&) {
  ++confirmed;
  const auto it = requested_.find(vc);
  if (it == requested_.end()) return;
  connect_ms.push_back(static_cast<double>(platform_->scheduler().now() - it->second) /
                       static_cast<double>(kMillisecond));
  requested_.erase(it);
}

transport::ConnectRequest basic_request(net::NetAddress src, net::NetAddress dst, double rate,
                                        std::int64_t size) {
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

void LinkSet::add_pair(net::Network& n, net::NodeId a, net::NodeId b) {
  links.push_back(n.link(a, b));
  links.push_back(n.link(b, a));
}

std::int64_t LinkSet::packets() const {
  std::int64_t t = 0;
  for (const net::Link* l : links) t += l->stats().packets_sent;
  return t;
}

std::int64_t LinkSet::bytes() const {
  std::int64_t t = 0;
  for (const net::Link* l : links) t += l->stats().bytes_sent;
  return t;
}

std::int64_t LinkSet::drops() const {
  std::int64_t t = 0;
  for (const net::Link* l : links) {
    const net::LinkStats& s = l->stats();
    t += s.dropped_queue_overflow + s.dropped_loss + s.dropped_down;
  }
  return t;
}

std::size_t LinkSet::max_queue_depth() const {
  std::size_t m = 0;
  for (const net::Link* l : links) m = std::max(m, l->queue_depth());
  return m;
}

LayerCounters LayerCounters::take(const LinkSet& links, const sim::Scheduler& s) {
  LayerCounters c;
  c.packets = links.packets();
  c.wire_bytes = links.bytes();
  c.drops = links.drops();
  c.serial_rounds = static_cast<std::int64_t>(s.executor().serial_rounds());
  c.parallel_rounds = static_cast<std::int64_t>(s.executor().parallel_rounds());
  c.allocs = heap_allocs();
  const FramePoolStats ps = FramePool::global().stats();
  c.pool_misses = ps.pool_misses;
  c.copied_bytes = ps.copied_bytes;
  return c;
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d = *this;
  d.packets -= o.packets;
  d.wire_bytes -= o.wire_bytes;
  d.drops -= o.drops;
  d.serial_rounds -= o.serial_rounds;
  d.parallel_rounds -= o.parallel_rounds;
  d.allocs -= o.allocs;
  d.pool_misses -= o.pool_misses;
  d.copied_bytes -= o.copied_bytes;
  d.events -= o.events;
  return d;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  packets += o.packets;
  wire_bytes += o.wire_bytes;
  drops += o.drops;
  serial_rounds += o.serial_rounds;
  parallel_rounds += o.parallel_rounds;
  allocs += o.allocs;
  pool_misses += o.pool_misses;
  copied_bytes += o.copied_bytes;
  events += o.events;
  return *this;
}

void VcTotals::add(const transport::Connection* source, const transport::Connection* sink) {
  if (source != nullptr) {
    osdus_submitted += source->stats().osdus_submitted;
    tpdus_sent += source->stats().tpdus_sent;
    retransmits += source->stats().tpdus_retransmitted;
  }
  if (sink != nullptr) {
    skipped += sink->stats().osdus_skipped;
    shed += sink->stats().osdus_shed;
  }
}

PayloadView pump_template(std::uint64_t seed) {
  // The seed picks which frame of the synthetic track is the template, so
  // the payload bytes differ from seed to seed.
  return media::make_frame_view(1, static_cast<std::uint32_t>(seed % 100'000), Pump::kOsduBytes);
}

double crc32_ns_per_kib(std::uint64_t seed) {
  const PayloadView frame = pump_template(seed);
  const std::span<const std::uint8_t> bytes = frame.span();
  static volatile std::uint32_t sink = 0;
  std::vector<double> per_kib;
  for (int pass = 0; pass < 9; ++pass) {
    const std::int64_t t0 = wall_ns();
    sink = sink ^ crc32(bytes);
    per_kib.push_back(static_cast<double>(wall_ns() - t0) * 1024.0 /
                      static_cast<double>(bytes.size()));
  }
  return median(per_kib);
}

void add_common_layer_metrics(Report& r, const LayerCounters& w, double window_s,
                              std::int64_t osdus, double crc_ns_per_kib) {
  const double n = static_cast<double>(std::max<std::int64_t>(1, osdus));
  const auto events = static_cast<double>(w.events);
  const auto rounds = static_cast<double>(w.serial_rounds + w.parallel_rounds);
  const auto wire = static_cast<double>(w.wire_bytes);
  r.set("util.crc32_ns_per_kib", crc_ns_per_kib, "ns");
  // Every payload byte is checksummed once at send and once at receive.
  r.set("util.crc_share_est", crc_ns_per_kib / 1024.0 * 2.0 * wire / (window_s * 1e9), "fraction");
  r.set("util.pool_misses_per_osdu", static_cast<double>(w.pool_misses) / n, "count");
  r.set("util.copied_bytes_per_osdu", static_cast<double>(w.copied_bytes) / n, "B");
  r.set("sim.events_per_osdu", events / n, "count");
  r.set("sim.events_per_wall_s", events / window_s, "1/s");
  r.set("sim.parallel_rounds", static_cast<double>(w.parallel_rounds), "count");
  r.set("sim.serial_rounds", static_cast<double>(w.serial_rounds), "count");
  r.set("sim.events_per_round", events / std::max(1.0, rounds), "count");
  r.set("net.packets_per_osdu", static_cast<double>(w.packets) / n, "count");
  r.set("net.wire_bytes_per_osdu", wire / n, "B");
  r.set("net.drops", static_cast<double>(w.drops), "count");
}

void add_vc_metrics(Report& r, const VcTotals& t) {
  r.set("transport.tpdus_per_osdu",
        static_cast<double>(t.tpdus_sent) /
            static_cast<double>(std::max<std::int64_t>(1, t.osdus_submitted)),
        "count");
  r.set("transport.retransmits", static_cast<double>(t.retransmits), "count");
  r.set("transport.osdus_skipped", static_cast<double>(t.skipped), "count");
  r.set("transport.osdus_shed", static_cast<double>(t.shed), "count");
}

void add_media_metrics(Report& r, const MediaTotals& m) {
  r.set("media.frames_rendered", static_cast<double>(m.frames_rendered), "count");
  r.set("media.starvation_events", static_cast<double>(m.starvation_events), "count");
  r.set("media.integrity_failures", static_cast<double>(m.integrity_failures), "count");
}

void add_orch_metrics(Report& r, const OrchFigures& o) {
  r.set("orch.domain_reports_per_sim_s", o.domain_reports_per_sim_s, "1/sim_s");
  r.set("orch.root_aggregates_per_sim_s", o.root_aggregates_per_sim_s, "1/sim_s");
  r.set("orch.fanin_ratio", o.fanin_ratio, "ratio");
  r.set("orch.skew_ms_max", o.skew_ms_max, "sim_ms");
  r.set("orch.ready_ms", o.ready_ms, "sim_ms");
}

void add_obs_snapshot_metrics(Report& r) {
  const std::int64_t t0 = wall_ns();
  std::string json;
  {
    PB_SPAN(SpanKind::kSnapshot);
    json = obs::Registry::global().to_json();
  }
  r.set("obs.snapshot_ms", seconds_since(t0) * 1e3, "ms");
  r.set("obs.snapshot_bytes", static_cast<double>(json.size()), "B");
  r.set("obs.instruments", static_cast<double>(obs::Registry::global().size()), "count");
}

void add_span_metrics(Report& r, double overhead_pct) {
  const SpanRecorder& rec = spans();
  auto q = [&](SpanKind k, double p) { return quantile(rec.durations_us(k), p); };
  r.set("transport.submit_us_p50", q(SpanKind::kSubmit, 0.5), "us");
  r.set("transport.submit_us_p99", q(SpanKind::kSubmit, 0.99), "us");
  r.set("transport.receive_us_p50", q(SpanKind::kReceive, 0.5), "us");
  r.set("transport.connect_call_us_p50", q(SpanKind::kConnect, 0.5), "us");
  r.set("transport.connect_call_us_p99", q(SpanKind::kConnect, 0.99), "us");
  r.set("transport.disconnect_call_us_p50", q(SpanKind::kDisconnect, 0.5), "us");
  r.set("orch.orchestrate_call_us", q(SpanKind::kOrchestrate, 0.5), "us");
  r.set("orch.prime_call_us", q(SpanKind::kPrime, 0.5), "us");
  r.set("orch.start_call_us", q(SpanKind::kStart, 0.5), "us");
  r.set("platform.build_s", q(SpanKind::kBuild, 0.5) * 1e-6, "s");
  r.set("platform.stream_connect_s", q(SpanKind::kStreamConnect, 0.5) * 1e-6, "s");

  // Share of traced block time spent inside Scheduler::run_until.
  const auto& all = rec.spans();
  auto in_block = [&](std::int32_t i) {
    for (; i >= 0; i = all[static_cast<std::size_t>(i)].parent)
      if (all[static_cast<std::size_t>(i)].kind == SpanKind::kBlock) return true;
    return false;
  };
  double run_until_s = 0;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].kind == SpanKind::kRunUntil && in_block(static_cast<std::int32_t>(i)))
      run_until_s += static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
  const double block_s = rec.total_s(SpanKind::kBlock);
  r.set("sim.run_until_share", block_s > 0 ? run_until_s / block_s : 0, "fraction");
  r.set("trace.spans", static_cast<double>(all.size()), "count");
  r.set("trace.overhead_pct", overhead_pct, "%");
}

std::size_t advance(platform::Platform& p, Time until) {
  PB_SPAN(SpanKind::kRunUntil);
  return p.scheduler().run_until(until);
}

// --- the 64 KiB pump -----------------------------------------------------------

Pump::Pump(platform::Platform& p, platform::Host& src, platform::Host& dst, std::uint64_t seed)
    : src_user(p, src.entity),
      dst_user(p, dst.entity),
      p_(&p),
      src_(&src),
      dst_(&dst),
      frame_(pump_template(seed)) {
  src.entity.bind(1, &src_user);
  dst.entity.bind(2, &dst_user);
}

bool Pump::request() {
  auto req = basic_request({src_->id, 1}, {dst_->id, 2}, kOsduRate,
                           static_cast<std::int64_t>(kOsduBytes));
  req.service_class.profile = transport::ProtocolProfile::kRateBasedCm;
  req.service_class.error_control = transport::ErrorControl::kIndicate;
  req.buffer_osdus = 64;
  req.pacing_burst = 32;  // one pacing tick drains a fragment burst
  vc_ = src_user.connect(req);
  return vc_ != transport::kInvalidVc;
}

bool Pump::attach() {
  source_ = src_->entity.source(vc_);
  sink_ = dst_->entity.sink(vc_);
  return source_ != nullptr && sink_ != nullptr;
}

void Pump::submit_all() {
  for (;;) {
    bool ok = false;
    {
      PB_SPAN(SpanKind::kSubmit);
      ok = source_->submit(frame_);
    }
    if (!ok) return;
    ++accepted;
  }
}

void Pump::receive_all(bool record_delay) {
  const Time now = p_->scheduler().now();
  for (;;) {
    std::optional<transport::Osdu> o;
    {
      PB_SPAN(SpanKind::kReceive);
      o = sink_->receive();
    }
    if (!o) return;
    ++delivered;
    if (record_delay)
      delay_ms.push_back(static_cast<double>(now - o->true_submit) /
                         static_cast<double>(kMillisecond));
    if (delivered % 64 == 1) {  // byte-for-byte sample against the template
      ++sampled;
      if (!(o->data == frame_)) ++mismatched;
    }
  }
}

void Pump::drain(Duration d) {
  advance(*p_, p_->scheduler().now() + d);
  receive_all(false);
}

bool Pump::release(Duration settle) {
  const std::int64_t before = dst_user.disconnected;
  src_user.disconnect(vc_);
  advance(*p_, p_->scheduler().now() + settle);
  source_ = sink_ = nullptr;
  return dst_user.disconnected > before;
}

}  // namespace perfbench
