// city_churn: the executor across 121 shards, HLO/LLO regulation and
// federation digests, per-event cost on small packets, and control-plane
// connect/disconnect beside steady media (the world of
// examples/city_soak.cpp, scenario "churn").
//
// A core switch fans out to 12 district hubs, each with one media server
// and 8 workstations; every server feeds a 10 fps stored video stream of
// 512-B frames to each of its workstations (96 streams), orchestrated as
// the 12 domains of one FederatedHlo under a FailoverFleet.  Set-up is
// everything up to the start barrier (7 simulated s).  The window is the
// churn mixer: 32 rotating cross-district slots, one close+reopen every
// 50 ms for 10 simulated s, plus 1 s to settle.
//
// A run repeats the whole scenario (same seed) until --seconds of window
// wall time are used; every repetition must reproduce the first one's
// simulated results exactly, and every city_soak oracle must hold.

#include <algorithm>
#include <cmath>
#include <memory>

#include "common.h"
#include "media/sink.h"
#include "media/stored_server.h"
#include "obs/metrics.h"
#include "orch/failover.h"
#include "orch/federation.h"
#include "platform/stream.h"
#include "util/contract.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kDistricts = 12;
constexpr int kWsPerDistrict = 8;
constexpr int kStreams = kDistricts * kWsPerDistrict;
constexpr net::Tsap kChurnTsap = 900;
constexpr int kSlots = 32;
constexpr int kChurnOps = 200;
constexpr Duration kChurnEvery = 50 * kMillisecond;

struct District {
  platform::Host* hub = nullptr;
  platform::Host* server = nullptr;
  std::vector<platform::Host*> ws;
  std::unique_ptr<media::StoredMediaServer> store;
};

struct City {
  explicit City(std::uint64_t seed) : platform(seed) {
    platform.set_threads(1);
    {
      PB_SPAN(SpanKind::kBuild);
      core = &platform.add_host("core");
      // Trunks 100 Mbit/s, access links 10 Mbit/s.
      net::LinkConfig trunk;
      trunk.bandwidth_bps = 100'000'000;
      trunk.propagation_delay = 1 * kMillisecond;
      net::LinkConfig access;
      access.bandwidth_bps = 10'000'000;
      access.propagation_delay = 1 * kMillisecond;
      for (int d = 0; d < kDistricts; ++d) {
        District dist;
        const std::string dn = "d" + std::to_string(d);
        dist.hub = &platform.add_host(dn + "-hub");
        dist.server = &platform.add_host(dn + "-srv");
        platform.network().add_link(core->id, dist.hub->id, trunk);
        platform.network().add_link(dist.hub->id, dist.server->id, access);
        for (int w = 0; w < kWsPerDistrict; ++w) {
          auto& h = platform.add_host(dn + "-ws" + std::to_string(w));
          platform.network().add_link(dist.hub->id, h.id, access);
          dist.ws.push_back(&h);
        }
        districts.push_back(std::move(dist));
      }
      platform.network().finalize_routes();
    }
    for (District& dist : districts) {
      links.add_pair(platform.network(), core->id, dist.hub->id);
      links.add_pair(platform.network(), dist.hub->id, dist.server->id);
      for (platform::Host* h : dist.ws) links.add_pair(platform.network(), dist.hub->id, h->id);
    }

    // Media plane: one stored track per workstation, rendered there.
    PB_SPAN(SpanKind::kStreamConnect);
    const std::int64_t heap0 = heap_bytes();
    platform::VideoQos vq;
    vq.frames_per_second = 10;
    for (int d = 0; d < kDistricts; ++d) {
      District& dist = districts[static_cast<std::size_t>(d)];
      dist.store = std::make_unique<media::StoredMediaServer>(platform, *dist.server,
                                                              "store" + std::to_string(d));
      for (int w = 0; w < kWsPerDistrict; ++w) {
        media::TrackConfig track;
        track.track_id = static_cast<std::uint32_t>(d * kWsPerDistrict + w + 1);
        track.vbr.base_bytes = 512;
        const net::NetAddress src = dist.store->add_track(static_cast<net::Tsap>(100 + w), track);
        media::RenderConfig rc;
        rc.expect_track = track.track_id;
        platform::Host& ws = *dist.ws[static_cast<std::size_t>(w)];
        sinks.push_back(std::make_unique<media::RenderingSink>(platform, ws, net::Tsap{200}, rc));
        auto& s = streams.emplace_back(std::make_unique<platform::Stream>(
            platform, ws, "s" + std::to_string(track.track_id)));
        s->set_buffer_osdus(8);
        s->connect(src, {ws.id, net::Tsap{200}}, platform::MediaQos{vq}, {},
                   [this](bool ok, auto) { streams_connected += ok; });
      }
    }
    advance(platform, 2 * kSecond);
    heap_per_vc = static_cast<double>(heap_bytes() - heap0) /
                  static_cast<double>(std::max(1, streams_connected));

    // Churn endpoints: every workstation originates and terminates slots.
    for (District& dist : districts)
      for (platform::Host* h : dist.ws) {
        churn_users.push_back(std::make_unique<TimedUser>(platform, h->entity));
        h->entity.bind(kChurnTsap, churn_users.back().get());
      }
  }

  TimedUser& churn_user(int district, int w) {
    return *churn_users[static_cast<std::size_t>(district * kWsPerDistrict + w)];
  }
  platform::Host* ws(int district, int w) {
    return districts[static_cast<std::size_t>(district)].ws[static_cast<std::size_t>(w)];
  }

  platform::Platform platform;
  platform::Host* core = nullptr;
  std::vector<District> districts;
  LinkSet links;
  std::vector<std::unique_ptr<media::RenderingSink>> sinks;
  std::vector<std::unique_ptr<platform::Stream>> streams;
  std::vector<std::unique_ptr<TimedUser>> churn_users;
  int streams_connected = 0;
  double heap_per_vc = 0;
};

/// One rotating churn slot: a cross-district VC owned by its source ws.
struct ChurnSlot {
  TimedUser* owner = nullptr;
  transport::VcId vc = transport::kInvalidVc;
};

bool open_slot(City& city, Rng& rng, ChurnSlot& slot) {
  const int sd = static_cast<int>(rng.uniform(0, kDistricts - 1));
  const int dd = (sd + 1 + static_cast<int>(rng.uniform(0, kDistricts - 2))) % kDistricts;
  const int sw = static_cast<int>(rng.uniform(0, kWsPerDistrict - 1));
  const int dw = static_cast<int>(rng.uniform(0, kWsPerDistrict - 1));
  platform::Host* src = city.ws(sd, sw);
  platform::Host* dst = city.ws(dd, dw);
  slot.owner = &city.churn_user(sd, sw);
  // A low-rate request (tiny reservation, so 32 concurrent slots never
  // pressure the 96 pinned video contracts).
  slot.vc = slot.owner->connect(
      basic_request({src->id, kChurnTsap}, {dst->id, kChurnTsap}, 1.0, 256));
  return slot.vc != transport::kInvalidVc;
}

/// The simulated results one repetition must reproduce exactly.
struct Fingerprint {
  std::int64_t frames = 0;
  std::int64_t churn_confirmed = 0;
  std::uint64_t root_aggregates = 0;
  std::uint64_t domain_reports = 0;
  double delay_sum_ms = 0;
  double connect_sum_ms = 0;
  double skew_s = 0;
  bool operator==(const Fingerprint&) const = default;
};

}  // namespace

Report run_city_churn(const Options& opt) {
  Report r;
  BlockRates rates;
  std::vector<double> setup_s;
  LayerCounters window;
  std::int64_t window_frames = 0;
  double window_s = 0;
  std::size_t queue_max = 0;
  std::int64_t call_allocs = 0, calls = 0;
  // Simulated-time results of the first repetition (every later one must
  // match it).
  Fingerprint first;
  std::vector<double> delay_ms, connect_ms;
  double heap_per_vc = 0, idle_events_per_vc = 0, instruments_per_op = 0;
  std::size_t live_events = 0;
  OrchFigures orch;
  MediaTotals media_totals;
  VcTotals vcs;
  Report obs_part;
  double crc_ns = 0;

  const int min_reps = opt.smoke ? 1 : 3;
  for (int rep = 0; rep < min_reps || window_s < opt.seconds; ++rep) {
    obs::Registry::global().clear();  // each repetition starts as a fresh process would
    spans().set_run(static_cast<std::uint32_t>(rep));
    const bool traced = opt.trace && rep % 2 == 1;
    spans().set_enabled(opt.trace);
    const std::int64_t t0 = wall_ns();
    const std::int64_t violations0 = contract::violation_count();
    auto city = std::make_unique<City>(opt.seed);
    platform::Platform& p = city->platform;
    r.ops("stream connects", kStreams, kStreams - city->streams_connected);

    // Federate: one domain per district; the §7 most-touches election
    // seats each domain agent on its district server.
    orch::FederationPolicy fp;
    fp.domain.interval = 100 * kMillisecond;
    fp.domain.allow_no_common_node = true;
    orch::FederatedHlo fed(p.orchestrator(), fp);
    std::vector<std::vector<orch::OrchStreamSpec>> domains(kDistricts);
    for (int d = 0; d < kDistricts; ++d)
      for (int w = 0; w < kWsPerDistrict; ++w)
        domains[static_cast<std::size_t>(d)].push_back(
            city->streams[static_cast<std::size_t>(d * kWsPerDistrict + w)]->orch_spec(2));

    bool established = false, primed = false, started = false;
    Time t_started = -1;
    const Time t_orchestrate = p.scheduler().now();
    bool accepted = false;
    {
      PB_SPAN(SpanKind::kOrchestrate);
      accepted = fed.orchestrate(std::move(domains), [&](bool ok, auto) { established = ok; });
    }
    r.check("federated orchestrate accepted", accepted);
    r.check("one domain per district", fed.domain_count() == kDistricts);
    if (!accepted || fed.domain_count() != kDistricts) return r;
    bool elected = true;
    for (std::size_t d = 0; d < kDistricts; ++d)
      elected = elected && fed.domain(d)->orchestrating_node() == city->districts[d].server->id;
    r.check("district servers elected as domain orchestrators", elected);
    advance(p, 4 * kSecond);
    r.check("federation established", established);

    orch::FailoverFleet fleet(
        p.scheduler(), p.orchestrator(), [&](net::NodeId n) { return &p.host(n).llo; },
        [&](net::NodeId n) { return p.node_alive(n); });
    fed.adopt_failover(fleet);
    r.check("fleet adopted every domain", fleet.session_count() == kDistricts);
    {
      PB_SPAN(SpanKind::kPrime);
      fed.prime(false, [&](bool ok, auto) { primed = ok; });
    }
    advance(p, 6 * kSecond);
    r.check("prime barrier", primed);
    {
      PB_SPAN(SpanKind::kStart);
      fed.start([&](bool ok, auto) {
        started = ok;
        t_started = p.scheduler().now();
      });
    }
    advance(p, 7 * kSecond);
    r.check("start barrier", started);
    setup_s.push_back(seconds_since(t0));

    // ---- window: the churn mixer ----
    if (rep == 0) crc_ns = crc32_ns_per_kib(opt.seed);
    auto frames_now = [&] {
      std::int64_t f = 0;
      for (const auto& s : city->sinks) f += s->stats().frames_rendered;
      return f;
    };
    std::uint64_t domain_reports0 = 0;
    for (std::size_t d = 0; d < fed.domain_count(); ++d)
      domain_reports0 += fed.domain_reports_processed(d);
    const std::uint64_t root0 = fed.root_aggregates_processed();
    const std::size_t instruments0 = obs::Registry::global().size();
    const std::int64_t frames0 = frames_now();
    LayerCounters before = LayerCounters::take(city->links, p.scheduler());
    Rng rng(opt.seed ^ 0xc17c17c17ull);
    std::vector<ChurnSlot> slots(kSlots);
    int opens = 0, admission_failures = 0;
    std::int64_t events = 0;
    spans().set_enabled(traced);
    const std::int64_t w0 = wall_ns();
    {
      PB_SPAN(SpanKind::kWindow);
      PB_SPAN(SpanKind::kBlock);
      for (ChurnSlot& slot : slots) {
        ++opens;
        if (!open_slot(*city, rng, slot)) ++admission_failures;
      }
      Time t = p.scheduler().now();
      std::size_t next = 0;
      for (int op = 0; op < kChurnOps; ++op) {
        t += kChurnEvery;
        events += static_cast<std::int64_t>(advance(p, t));
        queue_max = std::max(queue_max, city->links.max_queue_depth());
        ChurnSlot& slot = slots[next];
        next = (next + 1) % slots.size();
        if (slot.vc != transport::kInvalidVc) slot.owner->disconnect(slot.vc);
        ++opens;
        if (!open_slot(*city, rng, slot)) ++admission_failures;
      }
      events += static_cast<std::int64_t>(advance(p, t + kSecond));  // settle the last opens
    }
    const double wall = seconds_since(w0);
    spans().set_enabled(opt.trace);
    LayerCounters after = LayerCounters::take(city->links, p.scheduler());
    after.events = events;
    window += after - before;
    window_s += wall;
    const std::int64_t wframes = frames_now() - frames0;
    window_frames += wframes;
    rates.add(traced, wframes, wall);
    const double window_sim_s =
        static_cast<double>(kChurnOps * kChurnEvery + kSecond) / static_cast<double>(kSecond);

    // ---- oracles (examples/city_soak.cpp) ----
    std::int64_t confirmed = 0, disconnected = 0;
    std::vector<double> rep_connect_ms;
    for (const auto& u : city->churn_users) {
      confirmed += u->confirmed;
      disconnected += u->disconnected;
      rep_connect_ms.insert(rep_connect_ms.end(), u->connect_ms.begin(), u->connect_ms.end());
      call_allocs += u->call_allocs;
      calls += u->calls;
    }
    r.ops("churn opens admitted", opens, admission_failures);
    r.ops("churn opens confirmed", opens, opens - confirmed);
    // Each release produces two indications: the courtesy one to the
    // requesting endpoint's user and the DR-driven one at the peer.
    r.ops("churn releases indicated", kChurnOps,
          disconnected == 2 * kChurnOps
              ? 0
              : std::max<std::int64_t>(1, std::abs(2 * kChurnOps - disconnected) / 2));

    MediaTotals m;
    std::int64_t frames_min = -1;
    std::vector<double> rep_delay_ms;
    for (const auto& sink : city->sinks) {
      const auto& st = sink->stats();
      m.frames_rendered += st.frames_rendered;
      m.starvation_events += st.starvation_events;
      m.integrity_failures += st.integrity_failures;
      frames_min = frames_min < 0 ? st.frames_rendered : std::min(frames_min, st.frames_rendered);
      for (const media::DeliveryRecord& rec : sink->records())
        rep_delay_ms.push_back(static_cast<double>(rec.true_delay) /
                               static_cast<double>(kMillisecond));
    }
    r.check("every sink rendered", frames_min > 0);
    VcTotals rep_vcs;
    for (std::size_t i = 0; i < city->streams.size(); ++i) {
      const transport::VcId vc = city->streams[i]->vc();
      const std::size_t d = i / kWsPerDistrict;
      rep_vcs.add(city->districts[d].server->entity.source(vc),
                  city->districts[d].ws[i % kWsPerDistrict]->entity.sink(vc));
    }
    r.ops("stream OSDUs delivered intact", rep_vcs.osdus_submitted,
          rep_vcs.skipped + rep_vcs.shed + m.integrity_failures);

    const std::uint64_t root_agg = fed.root_aggregates_processed();
    std::uint64_t domain_reports = 0;
    for (std::size_t d = 0; d < fed.domain_count(); ++d)
      domain_reports += fed.domain_reports_processed(d);
    r.check("root fed with aggregates", root_agg >= 10 * kDistricts);
    r.check("fan-in ratio >= 4", domain_reports >= 4 * root_agg);
    bool clamped = true;
    for (std::size_t d = 0; d < fed.domain_count(); ++d)
      clamped = clamped && fed.domain_rate_scale(d) >= 0.95 && fed.domain_rate_scale(d) <= 1.05;
    r.check("root steering within +-5%", clamped);
    r.check("federation skew < 0.5 s", fed.max_domain_skew_s() < 0.5);
    r.check("no orphaned session", fleet.orphaned() == 0);
    bool no_failover = true;
    for (std::size_t d = 0; d < fleet.session_count(); ++d)
      no_failover = no_failover && fleet.supervisor(d).failovers() == 0;
    r.check("no failover", no_failover);
    r.check("no contract violations", contract::violation_count() == violations0);

    Fingerprint fpr;
    fpr.frames = m.frames_rendered;
    fpr.churn_confirmed = confirmed;
    fpr.root_aggregates = root_agg;
    fpr.domain_reports = domain_reports;
    for (double d : rep_delay_ms) fpr.delay_sum_ms += d;
    for (double c : rep_connect_ms) fpr.connect_sum_ms += c;
    fpr.skew_s = fed.max_domain_skew_s();
    if (rep == 0) {
      first = fpr;
      delay_ms = std::move(rep_delay_ms);
      connect_ms = std::move(rep_connect_ms);
      heap_per_vc = city->heap_per_vc;
      media_totals = m;
      orch.domain_reports_per_sim_s =
          static_cast<double>(domain_reports - domain_reports0) / window_sim_s;
      orch.root_aggregates_per_sim_s = static_cast<double>(root_agg - root0) / window_sim_s;
      orch.fanin_ratio = static_cast<double>(domain_reports) /
                         static_cast<double>(std::max<std::uint64_t>(1, root_agg));
      orch.skew_ms_max = fed.max_domain_skew_s() * 1e3;
      orch.ready_ms = static_cast<double>(t_started - t_orchestrate) /
                      static_cast<double>(kMillisecond);
      instruments_per_op = static_cast<double>(obs::Registry::global().size() - instruments0) /
                           static_cast<double>(opens);
      vcs = rep_vcs;
      live_events = p.scheduler().pending();
      if (opt.trace) add_obs_snapshot_metrics(obs_part);
      // One simulated second with no churn; the 96 streams keep playing.
      idle_events_per_vc = static_cast<double>(advance(p, p.scheduler().now() + kSecond)) /
                           static_cast<double>(kStreams + kSlots);
    } else {
      r.check("repetition reproduces the first", fpr == first);
    }
  }

  r.set("osdu_per_wall_s", rates.rate(), "OSDU/s");
  r.set("setup_s", median(setup_s), "s");
  r.set("allocs_per_osdu",
        static_cast<double>(window.allocs) /
            static_cast<double>(std::max<std::int64_t>(1, window_frames)),
        "count");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  r.set("heap_bytes_per_vc", heap_per_vc, "B");
  r.set_latencies(delay_ms, connect_ms);

  add_common_layer_metrics(r, window, window_s, window_frames, crc_ns);
  r.set("sim.idle_events_per_vc_s", idle_events_per_vc, "count");
  r.set("sim.live_events", static_cast<double>(live_events), "count");
  r.set("net.queue_depth_max", static_cast<double>(queue_max), "count");
  add_vc_metrics(r, vcs);
  r.set("transport.churn_allocs_per_op",
        static_cast<double>(call_allocs) / static_cast<double>(std::max<std::int64_t>(1, calls)),
        "count");
  add_media_metrics(r, media_totals);
  add_orch_metrics(r, orch);
  r.metrics.insert(r.metrics.end(), obs_part.metrics.begin(), obs_part.metrics.end());
  r.set("obs.instruments_per_churn_op", instruments_per_op, "count");
  add_span_metrics(r, rates.overhead_pct());
  return r;
}

}  // namespace perfbench
