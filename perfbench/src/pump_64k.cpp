// pump_64k: the data plane's per-byte cost.  Two nodes on a clean
// 1 Gbit/s link (media_batch_max 32) and one rate-based kIndicate VC
// carrying 64 KiB OSDUs at 250/s, fed one shared template frame (the
// world of bench/bench_multiplex.cpp, run_dataplane_pump).  Orchestration,
// executor fan-out, tables at scale and obs growth are idle here.
//
// A run repeats set-up + window several times: each repetition builds the
// world, connects, warms the pipeline for 1 simulated second (all timed as
// set-up), then pumps in 1-simulated-second blocks for its share of
// --seconds of wall time.

#include <algorithm>
#include <memory>

#include "common.h"
#include "obs/metrics.h"
#include "util/contract.h"

namespace perfbench {
namespace {

constexpr Duration kPoll = 20 * kMillisecond;
constexpr int kPollsPerBlock = 50;  // one simulated second per block

struct PumpWorld {
  explicit PumpWorld(std::uint64_t seed) : p(seed) {
    PB_SPAN(SpanKind::kBuild);
    p.set_threads(1);
    a = &p.add_host("src");
    b = &p.add_host("dst");
    net::LinkConfig link;
    link.bandwidth_bps = 1'000'000'000;
    link.propagation_delay = 1 * kMillisecond;
    link.media_batch_max = 32;  // batched media serialisation/delivery events
    p.network().add_link(a->id, b->id, link);
    p.network().finalize_routes();
    links.add_pair(p.network(), a->id, b->id);
  }
  platform::Platform p;
  platform::Host* a = nullptr;
  platform::Host* b = nullptr;
  LinkSet links;
};

}  // namespace

Report run_pump_64k(const Options& opt) {
  Report r;
  const int reps = opt.smoke ? 2 : 5;
  const double slice_s = opt.seconds / reps;

  BlockRates rates;
  std::vector<double> setup_s, heap_per_vc, delay_ms, connect_ms;
  LayerCounters window;
  std::int64_t window_osdus = 0;
  double window_s = 0;
  std::size_t queue_max = 0;
  std::int64_t call_allocs = 0, calls = 0;
  VcTotals vcs;
  double crc_ns = 0, idle_events = 0;
  std::size_t live_events = 0;
  Report obs_part;

  for (int rep = 0; rep < reps; ++rep) {
    obs::Registry::global().clear();  // each repetition starts as a fresh process would
    spans().set_run(static_cast<std::uint32_t>(rep));
    spans().set_enabled(opt.trace);
    const std::int64_t t0 = wall_ns();
    const std::int64_t violations0 = contract::violation_count();
    auto w = std::make_unique<PumpWorld>(opt.seed);
    Pump pump(w->p, *w->a, *w->b, opt.seed);
    {
      PB_SPAN(SpanKind::kSetup);
      const std::int64_t heap0 = heap_bytes();
      {
        PB_SPAN(SpanKind::kStreamConnect);
        r.check("pump connect admitted", pump.request());
        advance(w->p, 500 * kMillisecond);
      }
      const bool up = pump.attach();
      r.check("pump connect confirmed", up && pump.src_user.confirmed == 1);
      if (!up) return r;
      heap_per_vc.push_back(static_cast<double>(heap_bytes() - heap0));
      for (int i = 0; i < kPollsPerBlock; ++i) {  // warm-up: fill the pipeline
        pump.submit_all();
        advance(w->p, w->p.scheduler().now() + kPoll);
        pump.receive_all(false);
      }
    }
    setup_s.push_back(seconds_since(t0));

    if (rep == 0) crc_ns = crc32_ns_per_kib(opt.seed);
    LayerCounters before = LayerCounters::take(w->links, w->p.scheduler());
    const std::int64_t win0 = wall_ns();
    std::int64_t events = 0;
    int block = 0;
    {
      PB_SPAN(SpanKind::kWindow);
      do {
        const bool traced = opt.trace && block % 2 == 1;
        spans().set_enabled(traced);
        const std::int64_t b0 = wall_ns();
        const std::int64_t d0 = pump.delivered;
        {
          PB_SPAN(SpanKind::kBlock);
          for (int i = 0; i < kPollsPerBlock; ++i) {
            pump.submit_all();
            events += static_cast<std::int64_t>(advance(w->p, w->p.scheduler().now() + kPoll));
            queue_max = std::max(queue_max, w->links.max_queue_depth());
            pump.receive_all(true);
          }
        }
        rates.add(traced, pump.delivered - d0, seconds_since(b0));
        window_osdus += pump.delivered - d0;
        ++block;
      } while (seconds_since(win0) < slice_s);
    }
    window_s += seconds_since(win0);
    spans().set_enabled(opt.trace);
    LayerCounters after = LayerCounters::take(w->links, w->p.scheduler());
    after.events = events;
    window += after - before;
    if (rep == 0) {
      live_events = w->p.scheduler().pending();
      if (opt.trace) add_obs_snapshot_metrics(obs_part);
    }

    // Drain: delivered + in flight must equal accepted submits.
    pump.drain(kSecond);
    r.ops("pump OSDUs delivered", pump.accepted, pump.accepted - pump.delivered);
    r.ops("pump OSDUs match the template", pump.sampled, pump.mismatched);
    vcs.add(pump.source(), pump.sink());
    if (rep == 0)  // one idle simulated second, VC open, nothing submitted
      idle_events = static_cast<double>(advance(w->p, w->p.scheduler().now() + kSecond));
    r.check("pump release indicated", pump.release(100 * kMillisecond));
    r.check("no contract violations", contract::violation_count() == violations0);
    delay_ms.insert(delay_ms.end(), pump.delay_ms.begin(), pump.delay_ms.end());
    connect_ms.insert(connect_ms.end(), pump.src_user.connect_ms.begin(),
                      pump.src_user.connect_ms.end());
    call_allocs += pump.src_user.call_allocs;
    calls += pump.src_user.calls;
  }
  r.ops("pump OSDUs skipped or shed", vcs.osdus_submitted, vcs.skipped + vcs.shed);

  // End to end.
  r.set("osdu_per_wall_s", rates.rate(), "OSDU/s");
  r.set("setup_s", median(setup_s), "s");
  r.set("allocs_per_osdu",
        static_cast<double>(window.allocs) /
            static_cast<double>(std::max<std::int64_t>(1, window_osdus)),
        "count");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  r.set("heap_bytes_per_vc", median(heap_per_vc), "B");
  r.set_latencies(delay_ms, connect_ms);

  // Per layer.
  add_common_layer_metrics(r, window, window_s, window_osdus, crc_ns);
  r.set("sim.idle_events_per_vc_s", idle_events, "count");  // one VC
  r.set("sim.live_events", static_cast<double>(live_events), "count");
  r.set("net.queue_depth_max", static_cast<double>(queue_max), "count");
  add_vc_metrics(r, vcs);
  r.set("transport.churn_allocs_per_op",
        static_cast<double>(call_allocs) / static_cast<double>(std::max<std::int64_t>(1, calls)),
        "count");
  add_media_metrics(r, {});
  add_orch_metrics(r, {});
  r.metrics.insert(r.metrics.end(), obs_part.metrics.begin(), obs_part.metrics.end());
  r.set("obs.instruments_per_churn_op", 0, "count");
  add_span_metrics(r, rates.overhead_pct());
  return r;
}

}  // namespace perfbench
