// vc10k: per-VC state, timers at population, flat tables, per-VC obs
// instruments and memory (the world of bench/bench_scale.cpp, run_churn).
//
// 10 host pairs on 100 Mbit/s links carry 1,000 idle 1-OSDU/s VCs (256 B)
// each, beside a fat pump pair (1 Gbit/s, media_batch_max 32).  Set-up is
// the topology, the ramp to 10,000 confirmed VCs, the pump's connect and a
// 1-simulated-second pump warm-up; it is repeated three times (each world
// torn down before the next) and the last world runs the window.  The
// window runs, in 1-simulated-second blocks, close-oldest/open-new churn
// (one op every 50 ms, round-robin over the pairs) beside the 64 KiB pump
// with all 10k VCs resident.  Orchestration is idle.

#include <algorithm>
#include <deque>
#include <memory>

#include "common.h"
#include "obs/metrics.h"
#include "util/contract.h"

namespace perfbench {
namespace {

constexpr std::size_t kPairs = 10;
constexpr Duration kStep = 10 * kMillisecond;
constexpr int kStepsPerBlock = 100;  // one simulated second per block
constexpr int kChurnEverySteps = 5;  // one churn op every 50 ms

struct PopulationWorld {
  PopulationWorld(std::size_t per_pair, std::uint64_t seed)
      : p(seed), vcs_per_pair(per_pair) {
    p.set_threads(1);
    {
      PB_SPAN(SpanKind::kBuild);
      net::LinkConfig link;
      link.bandwidth_bps = 100'000'000;
      link.propagation_delay = 1 * kMillisecond;
      for (std::size_t i = 0; i < kPairs; ++i) {
        auto& src = p.add_host("src" + std::to_string(i));
        auto& dst = p.add_host("dst" + std::to_string(i));
        p.network().add_link(src.id, dst.id, link);
        srcs.push_back(&src);
        dsts.push_back(&dst);
      }
      pump_src = &p.add_host("pump-src");
      pump_dst = &p.add_host("pump-dst");
      net::LinkConfig fat;
      fat.bandwidth_bps = 1'000'000'000;
      fat.propagation_delay = 1 * kMillisecond;
      fat.media_batch_max = 32;
      p.network().add_link(pump_src->id, pump_dst->id, fat);
      p.network().finalize_routes();
    }
    for (std::size_t i = 0; i < kPairs; ++i) {
      links.add_pair(p.network(), srcs[i]->id, dsts[i]->id);
      src_users.push_back(std::make_unique<TimedUser>(p, srcs[i]->entity));
      dst_users.push_back(std::make_unique<TimedUser>(p, dsts[i]->entity));
      src_users[i]->record_connects = false;  // the ramp is set-up
      srcs[i]->entity.bind(1, src_users[i].get());
      dsts[i]->entity.bind(2, dst_users[i].get());
      live.emplace_back();
    }
    links.add_pair(p.network(), pump_src->id, pump_dst->id);
  }

  /// One cheap audio-ish VC on pair `i`.
  bool open_vc(std::size_t i) {
    auto req = basic_request({srcs[i]->id, 1}, {dsts[i]->id, 2}, 1.0, 256);
    req.buffer_osdus = 4;
    const auto vc = src_users[i]->connect(req);
    ++requested;
    if (vc == transport::kInvalidVc) return false;
    live[i].push_back(vc);
    return true;
  }

  /// Opens pairs x vcs_per_pair VCs in paced batches, then settles for 3
  /// simulated s (bench_scale's ramp, so heap per VC compares with it).
  void ramp() {
    for (std::size_t v = 0; v < vcs_per_pair; ++v) {
      for (std::size_t i = 0; i < kPairs; ++i) open_vc(i);
      if (v % 50 == 49) advance(p, p.scheduler().now() + 50 * kMillisecond);
    }
    advance(p, p.scheduler().now() + 3 * kSecond);
  }

  /// Close the oldest VC on pair `i`, open a replacement.
  void churn_op(std::size_t i) {
    if (!live[i].empty()) {
      src_users[i]->disconnect(live[i].front());
      live[i].pop_front();
      ++closed;
    }
    open_vc(i);
  }

  std::int64_t confirmed() const {
    std::int64_t n = 0;
    for (const auto& u : src_users) n += u->confirmed;
    return n;
  }
  std::int64_t peer_releases() const {
    std::int64_t n = 0;
    for (const auto& u : dst_users) n += u->disconnected;
    return n;
  }

  platform::Platform p;
  std::size_t vcs_per_pair;
  std::vector<platform::Host*> srcs, dsts;
  platform::Host* pump_src = nullptr;
  platform::Host* pump_dst = nullptr;
  LinkSet links;
  std::vector<std::unique_ptr<TimedUser>> src_users, dst_users;
  std::vector<std::deque<transport::VcId>> live;
  std::int64_t requested = 0;
  std::int64_t closed = 0;
};

}  // namespace

Report run_vc10k(const Options& opt) {
  Report r;
  const std::size_t vcs_per_pair = opt.smoke ? 100 : 1000;
  const int setups = opt.smoke ? 1 : 3;
  const auto population = static_cast<std::int64_t>(kPairs * vcs_per_pair);

  std::vector<double> setup_s, heap_per_vc;
  std::unique_ptr<PopulationWorld> w;
  std::unique_ptr<Pump> pump;
  std::int64_t violations0 = 0;
  for (int s = 0; s < setups; ++s) {
    pump.reset();
    w.reset();
    obs::Registry::global().clear();  // each set-up starts as a fresh process would
    spans().set_run(static_cast<std::uint32_t>(s));
    spans().set_enabled(opt.trace);
    violations0 = contract::violation_count();
    const std::int64_t t0 = wall_ns();
    PB_SPAN(SpanKind::kSetup);
    w = std::make_unique<PopulationWorld>(vcs_per_pair, opt.seed);
    const std::int64_t heap0 = heap_bytes();
    {
      PB_SPAN(SpanKind::kStreamConnect);
      w->ramp();
    }
    const std::int64_t confirmed = w->confirmed();
    heap_per_vc.push_back(static_cast<double>(heap_bytes() - heap0) /
                          static_cast<double>(std::max<std::int64_t>(1, confirmed)));
    r.ops("population VCs confirmed", population, population - confirmed);

    pump = std::make_unique<Pump>(w->p, *w->pump_src, *w->pump_dst, opt.seed);
    r.check("pump connect admitted", pump->request());
    advance(w->p, w->p.scheduler().now() + 500 * kMillisecond);
    const bool up = pump->attach();
    r.check("pump connect confirmed", up);
    if (!up) return r;
    for (int i = 0; i < kStepsPerBlock; ++i) {  // warm-up: fill the pipeline
      pump->submit_all();
      advance(w->p, w->p.scheduler().now() + kStep);
      pump->receive_all(false);
    }
    setup_s.push_back(seconds_since(t0));
  }

  // ---- window ----
  for (auto& u : w->src_users) u->record_connects = true;
  const double crc_ns = crc32_ns_per_kib(opt.seed);
  const std::size_t instruments0 = obs::Registry::global().size();
  const std::int64_t requested0 = w->requested, closed0 = w->closed;
  const std::int64_t releases0 = w->peer_releases();
  const std::int64_t confirmed0 = w->confirmed();
  std::int64_t call_allocs0 = 0, calls0 = 0;
  for (const auto& u : w->src_users) {
    call_allocs0 += u->call_allocs;
    calls0 += u->calls;
  }
  BlockRates rates;
  std::size_t queue_max = 0;
  std::size_t op = 0;
  std::int64_t events = 0, window_osdus = 0;
  LayerCounters before = LayerCounters::take(w->links, w->p.scheduler());
  const std::int64_t win0 = wall_ns();
  {
    PB_SPAN(SpanKind::kWindow);
    int block = 0;
    do {
      const bool traced = opt.trace && block % 2 == 1;
      spans().set_enabled(traced);
      const std::int64_t b0 = wall_ns();
      const std::int64_t d0 = pump->delivered;
      {
        PB_SPAN(SpanKind::kBlock);
        for (int i = 0; i < kStepsPerBlock; ++i) {
          if (i % kChurnEverySteps == 0) w->churn_op(op++ % kPairs);
          pump->submit_all();
          events += static_cast<std::int64_t>(advance(w->p, w->p.scheduler().now() + kStep));
          queue_max = std::max(queue_max, w->links.max_queue_depth());
          pump->receive_all(true);
        }
      }
      rates.add(traced, pump->delivered - d0, seconds_since(b0));
      window_osdus += pump->delivered - d0;
      ++block;
    } while (seconds_since(win0) < opt.seconds);
  }
  const double window_s = seconds_since(win0);
  spans().set_enabled(opt.trace);
  LayerCounters window = LayerCounters::take(w->links, w->p.scheduler());
  window.events = events;
  window = window - before;
  const std::size_t live_events = w->p.scheduler().pending();
  const double instruments_per_op =
      static_cast<double>(obs::Registry::global().size() - instruments0) /
      static_cast<double>(std::max<std::int64_t>(1, w->requested - requested0));
  Report obs_part;
  if (opt.trace) add_obs_snapshot_metrics(obs_part);

  // Drain the pump and let the last churn opens and releases complete.
  pump->drain(kSecond);
  const std::int64_t opens = w->requested - requested0;
  const std::int64_t closes = w->closed - closed0;
  r.ops("churn opens confirmed", opens, opens - (w->confirmed() - confirmed0));
  r.ops("churn releases indicated at the peer", closes, closes - (w->peer_releases() - releases0));
  r.ops("pump OSDUs delivered", pump->accepted, pump->accepted - pump->delivered);
  r.ops("pump OSDUs match the template", pump->sampled, pump->mismatched);
  VcTotals vcs;
  vcs.add(pump->source(), pump->sink());
  r.ops("pump OSDUs skipped or shed", vcs.osdus_submitted, vcs.skipped + vcs.shed);
  // One idle simulated second: every VC resident, nothing submitted.
  const double idle_events = static_cast<double>(advance(w->p, w->p.scheduler().now() + kSecond));
  r.check("pump release indicated", pump->release(100 * kMillisecond));
  r.check("no contract violations", contract::violation_count() == violations0);

  std::vector<double> connect_ms;
  std::int64_t call_allocs = -call_allocs0, calls = -calls0;
  for (const auto& u : w->src_users) {
    connect_ms.insert(connect_ms.end(), u->connect_ms.begin(), u->connect_ms.end());
    call_allocs += u->call_allocs;
    calls += u->calls;
  }

  r.set("osdu_per_wall_s", rates.rate(), "OSDU/s");
  r.set("setup_s", median(setup_s), "s");
  r.set("allocs_per_osdu",
        static_cast<double>(window.allocs) /
            static_cast<double>(std::max<std::int64_t>(1, window_osdus)),
        "count");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  r.set("heap_bytes_per_vc", median(heap_per_vc), "B");
  r.set_latencies(pump->delay_ms, connect_ms);

  add_common_layer_metrics(r, window, window_s, window_osdus, crc_ns);
  r.set("sim.idle_events_per_vc_s", idle_events / static_cast<double>(population + 1), "count");
  r.set("sim.live_events", static_cast<double>(live_events), "count");
  r.set("net.queue_depth_max", static_cast<double>(queue_max), "count");
  add_vc_metrics(r, vcs);
  r.set("transport.churn_allocs_per_op",
        static_cast<double>(call_allocs) / static_cast<double>(std::max<std::int64_t>(1, calls)),
        "count");
  add_media_metrics(r, {});
  add_orch_metrics(r, {});
  r.metrics.insert(r.metrics.end(), obs_part.metrics.begin(), obs_part.metrics.end());
  r.set("obs.instruments_per_churn_op", instruments_per_op, "count");
  add_span_metrics(r, rates.overhead_pct());
  return r;
}

}  // namespace perfbench
