// soak — the seeded soak scenarios CI runs: fault injection, overload,
// byzantine wire damage and city-scale churn, in one scenario registry.
//
//   $ ./soak --list
//   $ ./soak --scenario orch_death [--seed N] [--threads N] [--json PATH]
//
// Each registry entry names a scenario, its default seed, a run function
// (which builds the scenario's world and checks its invariants in C++) and
// a post-run oracle over the metric registry's counter totals
// (soak_oracles.h).  Every scenario also gets the common oracle:
// contract.violations == 0.  stdout, stderr and the --json snapshot are
// byte-identical at every --threads value; tests/determinism_check.py diffs
// them for every listed scenario.
//
// Failover world (hub + four leaves, three orchestrated streams, the elected
// orchestrating node an endpoint of only two of them):
//   crash_mid_stream       a source node dies mid-playback; the transport
//                          liveness layer tears down its VC, the LLO
//                          detaches it and the session plays on
//   partition_prime_start  the network partitions during prime; the op times
//                          out, the partition heals, re-prime + start succeed
//   orch_death             the orchestrating node dies mid-regulation; the
//                          FailoverSupervisor re-elects a survivor, re-primes,
//                          re-starts and delivers Orch.Delayed
//   partition_heal_split_brain
//                          the orchestrating node is isolated, a successor is
//                          elected at a higher epoch, the partition heals and
//                          epoch fencing nacks the stale orchestrator into
//                          self-retirement with zero stale targets applied
//   partition_heal_split_brain_unfenced
//                          the same with fencing off: the split brain happens
//   orch_flap              two sub-budget isolation blips (no failover), then
//                          one real outage: exactly one failover, flapper fenced
//   fault_sweep            randomised schedules over 20 derived seeds; every
//                          run must satisfy the fencing, single-regulator,
//                          liveness and contract oracles
//   byzantine_storm        corruption, duplication, reordering and truncation
//                          storms (DESIGN.md §14) on the s1 media path; the
//                          session rides it out and checksums refuse the damage
//   byzantine_storm_unhardened
//                          the same storm with wire checksums off: corrupted
//                          packets, zero checksum refusals (silent acceptance)
//   dup_flood              a pure duplication storm; every copy is discarded
//   goodput_contrast       byzantine_storm hardened and unhardened with goodput
//                          gauges (BENCH_byzantine.json is its --seed 1 snapshot)
// Overload:
//   storm_recover          a jitter + loss storm walks the QoS ladder down and
//                          the manager probes back up to the preferred rung
//   preempt                a high-importance connect preempts the least
//                          important stream on a full link
//   consumer_stall         a stalled consumer sheds stale OSDUs, the VC lives
// City (121 nodes, 96 streams in 12 federated domains, DESIGN.md §15):
//   steady                 every stream renders, the root sees only digests
//   churn                  plus 200 cross-district VC open/close cycles
//
// Exit status: 0 when every invariant held, 1 otherwise, 2 on a usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "media/sink.h"
#include "media/stored_server.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "orch/failover.h"
#include "orch/federation.h"
#include "platform/host.h"
#include "platform/qos_manager.h"
#include "platform/stream.h"
#include "sim/chaos.h"
#include "soak_oracles.h"
#include "util/rng.h"
#include "util/wire_hardening.h"

using namespace cmtos;

namespace {

bool fail(const char* what) {
  std::fprintf(stderr, "soak: FAILED: %s\n", what);
  return false;
}

std::int64_t total(const std::string& name) { return obs::Registry::global().total(name); }

// ====================================================================
// Failover world: chaos and byzantine scenarios
// ====================================================================

struct FailoverWorld {
  FailoverWorld(std::uint64_t seed, unsigned threads) : platform(seed) {
    platform.set_threads(threads);
    hub = &platform.add_host("hub");
    srv1 = &platform.add_host("srv1");
    wsB = &platform.add_host("wsB");
    wsC = &platform.add_host("wsC");
    srv2 = &platform.add_host("srv2");
    net::LinkConfig link;
    link.bandwidth_bps = 10'000'000;
    link.propagation_delay = 1 * kMillisecond;
    for (auto* h : leaves()) platform.network().add_link(hub->id, h->id, link);
    platform.network().finalize_routes();

    transport::TransportConfig tc;
    tc.keepalive_interval = 200 * kMillisecond;
    tc.peer_dead_after = 800 * kMillisecond;
    for (auto* h : {hub, srv1, wsB, wsC, srv2}) h->entity.set_config(tc);

    platform::VideoQos vq;
    vq.frames_per_second = 25;

    server1 = std::make_unique<media::StoredMediaServer>(platform, *srv1, "srv1");
    media::TrackConfig t;
    t.auto_start = false;
    t.vbr.base_bytes = vq.frame_bytes();
    t.vbr.gop = 0;
    t.vbr.wobble = 0;
    t.track_id = 1;
    const net::NetAddress a1 = server1->add_track(100, t);
    t.track_id = 2;
    const net::NetAddress a2 = server1->add_track(101, t);
    server2 = std::make_unique<media::StoredMediaServer>(platform, *srv2, "srv2");
    t.track_id = 3;
    const net::NetAddress a3 = server2->add_track(102, t);

    media::RenderConfig r;
    r.expect_track = 1;
    sink1 = std::make_unique<media::RenderingSink>(platform, *wsB, 200, r);
    r.expect_track = 2;
    sink2 = std::make_unique<media::RenderingSink>(platform, *wsC, 201, r);
    r.expect_track = 3;
    sink3 = std::make_unique<media::RenderingSink>(platform, *wsC, 202, r);

    s1 = std::make_unique<platform::Stream>(platform, *srv1, "s1");
    s2 = std::make_unique<platform::Stream>(platform, *srv1, "s2");
    s3 = std::make_unique<platform::Stream>(platform, *srv2, "s3");
    int connected = 0;
    auto on_conn = [&](bool conn_ok, auto) { connected += conn_ok; };
    s1->set_buffer_osdus(8);
    s2->set_buffer_osdus(8);
    s3->set_buffer_osdus(8);
    s1->connect(a1, {wsB->id, 200}, vq, {}, on_conn);
    s2->connect(a2, {wsC->id, 201}, vq, {}, on_conn);
    s3->connect(a3, {wsC->id, 202}, vq, {}, on_conn);
    platform.run_until(500 * kMillisecond);
    ok = connected == 3;
  }

  std::vector<platform::Host*> leaves() const { return {srv1, wsB, wsC, srv2}; }

  /// Orch.request over all three streams (orchestrating node: wsC) and
  /// adoption by the failover supervisor.
  bool establish() {
    orch::OrchPolicy policy;
    policy.interval = 100 * kMillisecond;
    policy.allow_no_common_node = true;
    bool established = false;
    auto session = platform.orchestrator().orchestrate(
        {s1->orch_spec(2), s2->orch_spec(2), s3->orch_spec(2)}, policy,
        [&](bool est, orch::OrchReason) { established = est; });
    if (session == nullptr) return false;
    platform.run_until(platform.scheduler().now() + kSecond);
    if (!established) return false;
    orch::FailoverConfig fc;
    fc.check_interval = 200 * kMillisecond;
    fc.agent_dead_after = kSecond;
    supervisor = std::make_unique<orch::FailoverSupervisor>(
        platform.scheduler(), platform.orchestrator(),
        [this](net::NodeId n) { return &platform.host(n).llo; },
        [this](net::NodeId n) { return platform.node_alive(n); }, fc);
    supervisor->watch(std::move(session));
    return true;
  }

  bool prime_and_start() {
    bool primed = false, started = false;
    supervisor->session()->prime(false, [&](bool p, auto) { primed = p; });
    platform.run_until(platform.scheduler().now() + 2 * kSecond);
    if (!primed) return false;
    supervisor->session()->start([&](bool st, auto) { started = st; });
    platform.run_until(platform.scheduler().now() + kSecond);
    return started;
  }

  /// Toggles epoch fencing on every endpoint LLO.  Off reproduces the
  /// pre-fencing protocol for the split-brain contrast run.
  void set_fencing(bool on) {
    for (auto* h : {hub, srv1, wsB, wsC, srv2}) h->llo.set_fencing_enabled(on);
  }

  /// Sums Link::stats().corrupted over every link in the star.
  std::int64_t links_corrupted() {
    std::int64_t n = 0;
    for (auto* h : leaves()) {
      if (auto* l = platform.network().link(hub->id, h->id)) n += l->stats().corrupted;
      if (auto* l = platform.network().link(h->id, hub->id)) n += l->stats().corrupted;
    }
    return n;
  }

  platform::Platform platform;
  platform::Host* hub = nullptr;
  platform::Host* srv1 = nullptr;
  platform::Host* wsB = nullptr;
  platform::Host* wsC = nullptr;
  platform::Host* srv2 = nullptr;
  std::unique_ptr<media::StoredMediaServer> server1, server2;
  std::unique_ptr<media::RenderingSink> sink1, sink2, sink3;
  std::unique_ptr<platform::Stream> s1, s2, s3;
  std::unique_ptr<orch::FailoverSupervisor> supervisor;
  bool ok = false;
};

using FailoverScenario = std::function<bool(FailoverWorld&, sim::ChaosEngine&, std::uint64_t)>;

/// World builder for the failover-world scenarios: builds the world and a
/// chaos engine, runs `fn`, and prints the engine's fault log.
std::function<bool(std::uint64_t, unsigned)> in_failover_world(FailoverScenario fn) {
  return [fn = std::move(fn)](std::uint64_t seed, unsigned threads) {
    FailoverWorld w(seed, threads);
    if (!w.ok) return fail("world setup");
    sim::ChaosEngine engine(w.platform.scheduler(), w.platform.chaos_target());
    const bool ok = fn(w, engine, seed);
    for (const auto& line : engine.log()) std::printf("fault: %s\n", line.c_str());
    return ok;
  };
}

/// A source node dies mid-playback; the session sheds its stream and keeps
/// regulating the rest.
bool run_crash_mid_stream(FailoverWorld& w, sim::ChaosEngine& engine, std::uint64_t seed) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  sim::ChaosPlan plan;
  plan.seed = seed;
  plan.crash(w.platform.scheduler().now() + 2 * kSecond, w.srv2->id);
  plan.events.back().start_jitter = 200 * kMillisecond;
  engine.arm(plan);
  const auto frames_before = w.sink1->stats().frames_rendered;
  w.platform.run_until(w.platform.scheduler().now() + 8 * kSecond);
  if (engine.injected() != 1) return fail("fault not injected");
  if (w.supervisor->failovers() != 0) return fail("spurious failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  auto& agent = w.supervisor->session()->agent();
  if (agent.streams().size() != 2) return fail("dead stream not shed from the group");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  return true;
}

/// The network partitions during prime: the op times out cleanly, then a
/// re-prime after the heal succeeds and the session starts.
bool run_partition_prime_start(FailoverWorld& w, sim::ChaosEngine& engine,
                               std::uint64_t seed) {
  if (!w.establish()) return fail("session setup");
  w.platform.host(w.wsC->id).llo.set_op_timeout(kSecond);

  // The cut must heal inside the transport liveness budget (800 ms), so the
  // VCs survive the partition and only the prime op is lost.
  sim::ChaosPlan plan;
  plan.seed = seed;
  plan.partition(w.platform.scheduler().now() + 100 * kMillisecond, w.hub->id, w.srv1->id,
                 600 * kMillisecond);
  engine.arm(plan);

  bool prime_done = false, prime_ok = false;
  w.platform.run_until(w.platform.scheduler().now() + 200 * kMillisecond);
  w.supervisor->session()->prime(false, [&](bool p, auto) {
    prime_done = true;
    prime_ok = p;
  });
  w.platform.run_until(w.platform.scheduler().now() + 1500 * kMillisecond);
  if (!prime_done || prime_ok) return fail("partitioned prime should time out");

  w.platform.run_until(w.platform.scheduler().now() + kSecond);  // heal well past
  if (!w.prime_and_start()) return fail("re-prime/start after heal");
  w.platform.run_until(w.platform.scheduler().now() + 3 * kSecond);
  if (w.sink1->stats().frames_rendered <= 0) return fail("no playback after heal");
  if (engine.injected() < 2) return fail("cut + heal not both injected");
  return true;
}

/// The orchestrating node dies mid-regulation: the supervisor re-elects a
/// survivor and the surviving stream is re-regulated.
bool run_orch_death(FailoverWorld& w, sim::ChaosEngine& engine, std::uint64_t seed) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  sim::ChaosPlan plan;
  plan.seed = seed;
  plan.crash(w.platform.scheduler().now() + 2 * kSecond, w.wsC->id);
  plan.events.back().start_jitter = 200 * kMillisecond;
  engine.arm(plan);
  const auto frames_before = w.sink1->stats().frames_rendered;
  w.platform.run_until(w.platform.scheduler().now() + 10 * kSecond);
  if (engine.injected() != 1) return fail("fault not injected");
  if (w.supervisor->failovers() != 1) return fail("no failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  if (w.supervisor->session()->orchestrating_node() != w.wsB->id)
    return fail("unexpected re-election");
  if (w.sink1->stats().delayed_indications <= 0) return fail("Orch.Delayed not delivered");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  return true;
}

/// The orchestrating node is partitioned away (alive, state intact), a
/// successor is elected at a bumped epoch, the partition heals, and the
/// stale orchestrator resumes regulating into the new world.  With fencing
/// the endpoints nack it into self-retirement and no stale target is ever
/// applied; without fencing its targets land beside the successor's — the
/// split brain the epoch exists to prevent.
bool run_split_brain(FailoverWorld& w, sim::ChaosEngine& engine, std::uint64_t seed,
                     bool fencing) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  w.set_fencing(fencing);
  const std::int64_t rejected_before = total("orch.stale_epoch_rejected");
  const std::int64_t applied_before = total("orch.stale_target_applied");
  const std::int64_t superseded_before = total("orch.superseded");

  sim::ChaosPlan plan;
  plan.seed = seed;
  plan.isolate(w.platform.scheduler().now() + 2 * kSecond, w.wsC->id, 3 * kSecond);
  engine.arm(plan);

  const auto frames_before = w.sink1->stats().frames_rendered;
  w.platform.run_until(w.platform.scheduler().now() + 12 * kSecond);

  if (engine.injected() != 2) return fail("isolate + heal not both injected");
  if (w.supervisor->failovers() != 1) return fail("no failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  if (w.supervisor->session()->orchestrating_node() != w.wsB->id)
    return fail("unexpected re-election");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");

  const std::int64_t rejected = total("orch.stale_epoch_rejected") - rejected_before;
  const std::int64_t applied = total("orch.stale_target_applied") - applied_before;
  if (!fencing) {
    // Contrast run: the healed orchestrator regulates beside its successor.
    return applied > 0 || fail("expected stale targets applied without fencing");
  }
  if (rejected <= 0) return fail("healed stale orchestrator was never fenced");
  if (applied != 0) return fail("stale target applied despite fencing");
  if (total("orch.superseded") - superseded_before != 1)
    return fail("stale orchestrator did not self-retire");
  if (w.supervisor->superseded_count() != 0)
    return fail("superseded session not reaped by the supervisor");
  // End state: exactly one regulator owns the surviving VC at its sink —
  // the re-elected node, at the fence epoch the endpoints adopted.
  auto& sink_llo = w.platform.host(w.wsB->id).llo;
  if (sink_llo.vc_regulator(w.s1->vc()) != w.wsB->id)
    return fail("stale regulator still owns the sink VC");
  if (sink_llo.vc_epoch(w.s1->vc()) != w.supervisor->session()->agent().epoch())
    return fail("sink fence does not match the active epoch");
  return true;
}

/// Two isolation blips shorter than both the transport liveness budget
/// (800 ms) and the supervisor's agent_dead_after (1 s): no failover may
/// result.  Then one real outage: exactly one failover, and the flapper is
/// fenced when it heals.
bool run_orch_flap(FailoverWorld& w, sim::ChaosEngine& engine, std::uint64_t seed) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  const std::int64_t rejected_before = total("orch.stale_epoch_rejected");
  const Time t0 = w.platform.scheduler().now();
  sim::ChaosPlan plan;
  plan.seed = seed;
  plan.isolate(t0 + kSecond, w.wsC->id, 300 * kMillisecond);
  plan.isolate(t0 + 2 * kSecond, w.wsC->id, 300 * kMillisecond);
  plan.isolate(t0 + 3500 * kMillisecond, w.wsC->id, 3 * kSecond);
  engine.arm(plan);

  const auto frames_before = w.sink1->stats().frames_rendered;
  w.platform.run_until(t0 + 12 * kSecond);

  if (engine.injected() != 6) return fail("isolates + heals not all injected");
  if (w.supervisor->failovers() != 1) return fail("flapping must cause exactly one failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  if (w.supervisor->session()->orchestrating_node() != w.wsB->id)
    return fail("unexpected re-election");
  if (total("orch.stale_epoch_rejected") <= rejected_before)
    return fail("healed flapper was never fenced");
  if (w.supervisor->superseded_count() != 0)
    return fail("superseded session not reaped by the supervisor");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  return true;
}

/// The fault_sweep oracle for one derived seed: the first invariant the
/// world breaks, or nullptr.
const char* sweep_broken(FailoverWorld& w, std::int64_t applied_before,
                         std::int64_t violations_before) {
  if (total("orch.stale_target_applied") != applied_before) return "stale target applied";
  if (total("contract.violations") != violations_before) return "contract violations";
  if (w.supervisor->orphaned()) return "session orphaned";
  if (w.supervisor->superseded_count() != 0) return "superseded session not reaped";
  auto& agent = w.supervisor->session()->agent();
  auto& sink_llo = w.platform.host(w.wsB->id).llo;
  if (sink_llo.vc_regulator(w.s1->vc()) != w.supervisor->session()->orchestrating_node())
    return "sink VC regulator is not the current orchestrating node";
  if (sink_llo.vc_epoch(w.s1->vc()) != agent.epoch())
    return "sink fence does not match the active epoch";
  if (w.platform.scheduler().now() - agent.last_report_time() > 2 * kSecond)
    return "status reports stale at end of run";
  return nullptr;
}

/// Randomised fault schedules over seeds derived from the base seed.  Each
/// derived seed builds a fresh world and draws from the fault families that
/// keep the s1 endpoints (srv1, wsB) alive, so the surviving stream's
/// regulation is always part of the oracle:
///   0: isolate the orchestrating node, heal after a random hold
///   1: crash the orchestrating node outright
///   2: crash srv2 (sheds s3), then isolate the orchestrating node
///   3: brief hub<->srv2 partition plus a sub-budget orchestrator blip
/// Oracles (outcome-agnostic — a short isolation may legitimately heal
/// before any failover): no stale target applied, exactly one regulator for
/// s1's sink VC (the current orchestrating node at the agent's epoch), the
/// session alive with fresh status reports, no contract violations.  Every
/// derived seed is printed so a failure replays from the base seed.
bool run_fault_sweep(std::uint64_t base_seed, unsigned threads) {
  constexpr int kSeeds = 20;
  int failures = 0;
  for (int i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = base_seed + 1000ull * static_cast<std::uint64_t>(i + 1);
    const std::int64_t applied_before = total("orch.stale_target_applied");
    const std::int64_t violations_before = total("contract.violations");
    auto seed_fail = [&](const char* what) {
      std::printf("sweep seed=%llu FAILED: %s\n", static_cast<unsigned long long>(seed), what);
      ++failures;
    };

    FailoverWorld w(seed, threads);
    if (!w.ok || !w.establish() || !w.prime_and_start()) {
      seed_fail("session setup");
      continue;
    }
    sim::ChaosEngine engine(w.platform.scheduler(), w.platform.chaos_target());

    Rng rng(seed ^ 0x5eed5eedull);
    const Time t0 = w.platform.scheduler().now();
    const int family = static_cast<int>(rng.uniform(0, 3));
    sim::ChaosPlan plan;
    plan.seed = seed;
    switch (family) {
      case 0:
        plan.isolate(t0 + rng.uniform(1, 3) * kSecond, w.wsC->id,
                     rng.uniform(1500, 3500) * kMillisecond);
        break;
      case 1:
        plan.crash(t0 + rng.uniform(1, 3) * kSecond, w.wsC->id);
        break;
      case 2: {
        const Time crash_at = t0 + rng.uniform(1, 2) * kSecond;
        plan.crash(crash_at, w.srv2->id);
        plan.isolate(crash_at + 2 * kSecond, w.wsC->id, 2 * kSecond);
        break;
      }
      default:
        plan.partition(t0 + rng.uniform(1, 2) * kSecond, w.hub->id, w.srv2->id,
                       rng.uniform(500, 1500) * kMillisecond);
        plan.isolate(t0 + rng.uniform(3, 4) * kSecond, w.wsC->id,
                     rng.uniform(100, 300) * kMillisecond);
        break;
    }
    engine.arm(plan);
    w.platform.run_until(t0 + 14 * kSecond);

    if (const char* broken = sweep_broken(w, applied_before, violations_before)) {
      seed_fail(broken);
      continue;
    }
    std::printf("sweep seed=%llu family=%d faults=%lld failovers=%d retries=%d ok\n",
                static_cast<unsigned long long>(seed), family,
                static_cast<long long>(engine.injected()), w.supervisor->failovers(),
                w.supervisor->rebuild_retries());
  }
  std::printf("sweep: %d/%d seeds passed\n", kSeeds - failures, kSeeds);
  return failures == 0;
}

/// All four impairment families hit the s1 media path (hub<->srv1 on the
/// source side, hub<->wsB on the sink side) mid-playback.  `hardening`
/// false reruns the identical storm against the pre-hardening protocol.
bool run_byzantine_storm(FailoverWorld& w, sim::ChaosEngine& engine, std::uint64_t seed,
                         bool hardening) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  cmtos::wire::set_hardening(hardening);

  const std::int64_t violations_before = total("contract.violations");
  const std::int64_t decode_failed_before = total("wire.decode_failed");
  const std::int64_t checksum_failed_before = total("wire.checksum_failed");
  const std::int64_t quarantined_before = total("wire.peer_quarantined");
  const std::int64_t corrupted_before = w.links_corrupted();
  const auto frames_before = w.sink1->stats().frames_rendered;

  const Time t0 = w.platform.scheduler().now();
  sim::ChaosPlan plan;
  plan.seed = seed;
  // ~10% of full media frames take a flip; small control PDUs mostly slip
  // through, so liveness survives while the data plane is under fire.
  plan.corrupt_storm(t0 + kSecond, w.hub->id, w.srv1->id, 2e-6, 4 * kSecond);
  plan.corrupt_storm(t0 + kSecond, w.hub->id, w.wsB->id, 2e-6, 4 * kSecond);
  plan.dup_storm(t0 + kSecond, w.hub->id, w.srv1->id, 0.2, 4 * kSecond);
  plan.reorder_storm(t0 + kSecond, w.hub->id, w.wsB->id, 0.2, 5 * kMillisecond,
                     4 * kSecond);
  plan.truncate_storm(t0 + 2 * kSecond, w.hub->id, w.srv1->id, 0.05, 2 * kSecond);
  engine.arm(plan);

  w.platform.run_until(t0 + 10 * kSecond);

  const std::int64_t corrupted = w.links_corrupted() - corrupted_before;
  if (engine.injected() != 5) return fail("storms not all injected");
  if (corrupted <= 0) return fail("storm drew no blood");
  if (w.supervisor->failovers() != 0) return fail("line noise caused a failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  if (total("contract.violations") - violations_before != 0)
    return fail("contract violations under the storm");
  if (total("wire.peer_quarantined") - quarantined_before != 0)
    return fail("line noise quarantined a peer");

  const std::int64_t refused = total("wire.decode_failed") - decode_failed_before;
  const std::int64_t checksum = total("wire.checksum_failed") - checksum_failed_before;
  if (hardening) {
    if (refused <= 0) return fail("decoders refused nothing under the storm");
    if (checksum <= 0) return fail("no checksum refusals despite bit corruption");
    return true;
  }
  // Contrast: the links flipped real bytes and not one checksum fired —
  // the pre-hardening stack swallows garbage in silence.
  if (checksum != 0) return fail("contrast run unexpectedly verified checksums");
  std::printf(
      "soak: CONTRAST: %lld corrupted packets, %lld checksum refusals "
      "— silent garbage acceptance demonstrated\n",
      static_cast<long long>(corrupted), static_cast<long long>(checksum));
  return true;
}

/// A pure duplication flood on the source path: every duplicate must be
/// discarded exactly once, nothing delivered twice, zero violations.
bool run_dup_flood(FailoverWorld& w, sim::ChaosEngine& engine, std::uint64_t seed) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  const std::int64_t violations_before = total("contract.violations");
  const std::int64_t dup_dropped_before = total("transport.dup_dropped");
  const auto frames_before = w.sink1->stats().frames_rendered;

  const Time t0 = w.platform.scheduler().now();
  sim::ChaosPlan plan;
  plan.seed = seed;
  plan.dup_storm(t0 + kSecond, w.hub->id, w.srv1->id, 0.4, 5 * kSecond);
  plan.dup_storm(t0 + kSecond, w.hub->id, w.wsB->id, 0.4, 5 * kSecond);
  engine.arm(plan);

  w.platform.run_until(t0 + 9 * kSecond);

  if (engine.injected() != 2) return fail("storms not all injected");
  if (w.supervisor->failovers() != 0) return fail("duplication caused a failover");
  if (total("transport.dup_dropped") - dup_dropped_before <= 0)
    return fail("no duplicates discarded under a dup storm");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  if (total("contract.violations") - violations_before != 0)
    return fail("contract violations under duplication");
  return true;
}

/// One byzantine_storm run measured for goodput: how many frames rendered,
/// and how many of those were silently corrupt (the sink's media-level
/// frame CRC is ground truth the transport cannot fake).
struct GoodputSample {
  bool ok = false;
  std::int64_t frames = 0;
  std::int64_t corrupt_rendered = 0;
  std::int64_t checksum_refused = 0;
};

GoodputSample measure_goodput(std::uint64_t seed, unsigned threads, bool hardening) {
  GoodputSample s;
  const std::int64_t checksum_before = total("wire.checksum_failed");
  FailoverWorld w(seed, threads);
  if (!w.ok) return s;
  sim::ChaosEngine engine(w.platform.scheduler(), w.platform.chaos_target());
  s.ok = run_byzantine_storm(w, engine, seed, hardening);
  for (auto* sink : {w.sink1.get(), w.sink2.get(), w.sink3.get()}) {
    s.frames += sink->stats().frames_rendered;
    s.corrupt_rendered += sink->stats().integrity_failures;
  }
  s.checksum_refused = total("wire.checksum_failed") - checksum_before;
  return s;
}

/// The before/after cost of hardening under the identical storm: hardened,
/// every rendered frame is intact (damage refused at the transport);
/// unhardened, corrupt frames reach the render path undetected.  The gauges
/// land in the --json snapshot.
bool run_goodput_contrast(std::uint64_t seed, unsigned threads) {
  const GoodputSample on = measure_goodput(seed, threads, true);
  if (!on.ok) return fail("hardened goodput run failed");
  const GoodputSample off = measure_goodput(seed, threads, false);
  if (!off.ok) return fail("contrast goodput run failed");
  if (on.corrupt_rendered != 0) return fail("hardened run rendered corrupt frames");
  if (off.corrupt_rendered <= 0)
    return fail("contrast run rendered no corrupt frames — nothing demonstrated");

  auto& reg = obs::Registry::global();
  for (const auto& [label, sample] : {std::pair{"on", &on}, std::pair{"off", &off}}) {
    const obs::Labels labels = {{"hardening", label}};
    reg.set_gauge("byzantine.frames_rendered", static_cast<double>(sample->frames), labels);
    reg.set_gauge("byzantine.frames_intact",
                  static_cast<double>(sample->frames - sample->corrupt_rendered), labels);
    reg.set_gauge("byzantine.frames_corrupt_rendered",
                  static_cast<double>(sample->corrupt_rendered), labels);
    reg.set_gauge("byzantine.checksum_refused", static_cast<double>(sample->checksum_refused),
                  labels);
  }
  std::printf(
      "soak: GOODPUT: hardened %lld frames (%lld corrupt, %lld refused at the wire) "
      "vs unhardened %lld frames (%lld corrupt rendered)\n",
      static_cast<long long>(on.frames), static_cast<long long>(on.corrupt_rendered),
      static_cast<long long>(on.checksum_refused), static_cast<long long>(off.frames),
      static_cast<long long>(off.corrupt_rendered));
  return true;
}

// ====================================================================
// Overload: storm_recover, preempt, consumer_stall
// ====================================================================

/// Small frame so every video OSDU is a single TPDU: per-packet link jitter
/// then shows up undamped in the monitor's OSDU delay spread, which is the
/// violation axis the storm scenario drives.
platform::VideoQos small_video() {
  platform::VideoQos vq;
  vq.width = 176;
  vq.height = 144;
  vq.frames_per_second = 25;
  vq.compression = 60;
  return vq;
}

/// One stored, constant-size track on `server` at `tsap`.
net::NetAddress add_cbr_track(media::StoredMediaServer& server, net::Tsap tsap,
                              std::uint32_t track_id, std::int64_t bytes, bool auto_start) {
  media::TrackConfig t;
  t.track_id = track_id;
  t.auto_start = auto_start;
  t.vbr.base_bytes = bytes;
  t.vbr.gop = 0;
  t.vbr.wobble = 0;
  return server.add_track(tsap, t);
}

/// A jitter + loss storm hits the video path for 8 s: the manager walks the
/// video ladder down, probes back up after the storm, and settles both
/// streams at the preferred rung again.
bool run_storm_recover(std::uint64_t seed, unsigned threads) {
  platform::Platform platform(seed);
  platform.set_threads(threads);
  auto& hub = platform.add_host("hub");
  auto& vidsrv = platform.add_host("vidsrv");
  auto& audsrv = platform.add_host("audsrv");
  auto& ws = platform.add_host("ws");
  net::LinkConfig link;
  link.bandwidth_bps = 10'000'000;
  link.propagation_delay = 1 * kMillisecond;
  for (auto* h : {&vidsrv, &audsrv, &ws}) platform.network().add_link(hub.id, h->id, link);
  platform.network().finalize_routes();

  const platform::VideoQos vq = small_video();
  platform::AudioQos aq;  // 8 kHz / 50 blocks per second
  media::StoredMediaServer vserver(platform, vidsrv, "vidsrv");
  const net::NetAddress va = add_cbr_track(vserver, 100, 1, vq.frame_bytes(), false);
  media::StoredMediaServer aserver(platform, audsrv, "audsrv");
  const net::NetAddress aa = add_cbr_track(aserver, 101, 2, aq.block_bytes(), false);
  media::RenderConfig r;
  r.expect_track = 1;
  media::RenderingSink vsink(platform, ws, 200, r);
  r.expect_track = 2;
  media::RenderingSink asink(platform, ws, 201, r);

  // Error control must correct: under indicate-only a loss storm thins
  // completions in proportion to the offered load at *every* rung, so no
  // amount of degradation clears the violation and the ladder can only
  // surrender.  With correction the storm is survivable — jitter drives
  // the ladder instead.
  transport::ServiceClass sc;
  sc.error_control = transport::ErrorControl::kCorrectAndIndicate;
  platform::Stream video(platform, vidsrv, "video");
  platform::Stream audio(platform, audsrv, "audio");
  int connected = 0;
  auto on_conn = [&](bool conn_ok, auto) { connected += conn_ok; };
  for (auto* s : {&video, &audio}) {
    s->set_buffer_osdus(8);
    s->set_sample_period(250 * kMillisecond);
  }
  video.connect(va, {ws.id, 200}, vq, sc, on_conn);
  audio.connect(aa, {ws.id, 201}, aq, sc, on_conn);
  platform.run_until(500 * kMillisecond);
  if (connected != 2) return fail("world setup");

  orch::OrchPolicy policy;
  policy.interval = 100 * kMillisecond;
  policy.allow_no_common_node = true;
  bool established = false, primed = false, started = false;
  auto session = platform.orchestrator().orchestrate(
      {video.orch_spec(2), audio.orch_spec(2)}, policy,
      [&](bool est, orch::OrchReason) { established = est; });
  if (session == nullptr) return fail("session setup");
  platform.run_until(platform.scheduler().now() + kSecond);
  if (established) session->prime(false, [&](bool p, auto) { primed = p; });
  platform.run_until(platform.scheduler().now() + 2 * kSecond);
  if (primed) session->start([&](bool st, auto) { started = st; });
  platform.run_until(platform.scheduler().now() + kSecond);
  if (!started) return fail("session setup");

  platform::QosManager::Config mc;
  mc.rungs = 4;
  mc.tick_period = 250 * kMillisecond;
  mc.quiet_after = kSecond;
  mc.floor_strikes = 12;
  mc.ladder.degrade_after_periods = 2;
  mc.ladder.upgrade_after_clean = 4;
  mc.ladder.validation_ticks = 3;
  mc.ladder.backoff_cap = 4;
  platform::QosManager mgr(platform, mc);
  mgr.manage(video);
  mgr.manage(audio);
  mgr.attach_agent(session->agent());

  sim::ChaosEngine engine(platform.scheduler(), platform.chaos_target());
  sim::ChaosPlan plan;
  plan.seed = seed;
  const Time t0 = platform.scheduler().now() + 2 * kSecond;
  // 80 ms per-packet jitter overwhelms the video ladder's 40 ms preferred
  // tolerance but stays inside its 80 ms floor, so a survivable rung
  // exists; the 5% loss rides along to exercise RN/NAK retransmission on
  // the renegotiation path (corrected, so it does not violate PER).
  plan.jitter_storm(t0, vidsrv.id, hub.id, 80 * kMillisecond, 8 * kSecond);
  plan.loss_storm(t0, vidsrv.id, hub.id, 0.05, 8 * kSecond);
  engine.arm(plan);

  // Through the storm...  Audio shares the orchestration session, so
  // regulation trades its fidelity for lip-sync with the delayed video
  // (drop-at-source shows up as jitter in its own contract): it may ride
  // its ladder down too, but must never be surrendered.
  platform.run_until(t0 + 8 * kSecond);
  if (engine.injected() < 2) return fail("storms not injected");
  if (mgr.totals().degrades < 1) return fail("no automatic degrade during the storm");
  if (!video.connected()) return fail("video did not survive the storm");
  if (mgr.ladder_level(video) < 1) return fail("video ladder never left the preferred rung");
  if (!audio.connected()) return fail("audio did not survive the storm");

  // ...and out the other side: probes climb back to the preferred rung.
  const auto frames_before = vsink.stats().frames_rendered;
  platform.run_until(platform.scheduler().now() + 20 * kSecond);
  if (mgr.totals().upgrades < 1) return fail("no automatic upgrade after the storm");
  if (mgr.ladder_level(video) != 0) return fail("video did not recover to preferred QoS");
  if (mgr.ladder_level(audio) != 0) return fail("audio did not recover to preferred QoS");
  if (mgr.totals().floor_failures != 0) return fail("spurious floor surrender");
  if (!video.connected() || !audio.connected()) return fail("stream lost");
  if (vsink.stats().frames_rendered <= frames_before) return fail("playback stalled");
  return true;
}

/// Two low-importance streams fill a thin link; a high-importance connect
/// preempts the least important one and is admitted at full preferred QoS.
bool run_preempt(std::uint64_t seed, unsigned threads) {
  platform::Platform platform(seed);
  platform.set_threads(threads);
  auto& src1 = platform.add_host("src1");
  auto& src2 = platform.add_host("src2");
  auto& hub = platform.add_host("hub");
  auto& ws = platform.add_host("ws");
  net::LinkConfig fat;
  fat.bandwidth_bps = 10'000'000;
  fat.propagation_delay = 1 * kMillisecond;
  platform.network().add_link(src1.id, hub.id, fat);
  platform.network().add_link(src2.id, hub.id, fat);
  // The contended link: reservable capacity (90%) holds two default video
  // streams (~1.33 Mbit/s each incl. control) but not a third.
  net::LinkConfig thin = fat;
  thin.bandwidth_bps = 3'333'333;
  platform.network().add_link(hub.id, ws.id, thin);
  platform.network().finalize_routes();

  platform::VideoQos vq;  // default 352x288: ~5 fragments, ~1.2 Mbit/s
  vq.frames_per_second = 25;
  media::StoredMediaServer server1(platform, src1, "src1");
  media::StoredMediaServer server2(platform, src2, "src2");
  const net::NetAddress a1 = add_cbr_track(server1, 100, 1, vq.frame_bytes(), true);
  const net::NetAddress a2 = add_cbr_track(server2, 101, 2, vq.frame_bytes(), true);
  const net::NetAddress a3 = add_cbr_track(server1, 102, 3, vq.frame_bytes(), true);
  media::RenderConfig r;
  r.expect_track = 1;
  media::RenderingSink sink1(platform, ws, 200, r);
  r.expect_track = 2;
  media::RenderingSink sink2(platform, ws, 201, r);
  r.expect_track = 3;
  media::RenderingSink sink3(platform, ws, 202, r);

  // Importance classes: background (0), normal (1), critical (5).  The
  // Streams live on the source hosts so the preemption indication reaches
  // the managing object directly.
  platform::Stream sa(platform, src1, "background");
  platform::Stream sb(platform, src2, "normal");
  platform::Stream sc(platform, src1, "critical");
  sa.set_importance(0);
  sb.set_importance(1);
  sc.set_importance(5);

  transport::DisconnectReason a_reason = transport::DisconnectReason::kUserInitiated;
  bool a_gone = false;
  sa.set_on_disconnected([&](transport::DisconnectReason reason) {
    a_gone = true;
    a_reason = reason;
  });
  bool b_gone = false;
  sb.set_on_disconnected([&](transport::DisconnectReason) { b_gone = true; });

  int connected = 0;
  auto on_conn = [&](bool conn_ok, auto) { connected += conn_ok; };
  sa.connect(a1, {ws.id, 200}, vq, {}, on_conn);
  sb.connect(a2, {ws.id, 201}, vq, {}, on_conn);
  platform.run_until(500 * kMillisecond);
  if (connected != 2) return fail("low-importance streams did not connect");

  bool c_ok = false;
  transport::QosParams c_agreed;
  sc.connect(a3, {ws.id, 202}, vq, {}, [&](bool conn_ok, transport::QosParams agreed) {
    c_ok = conn_ok;
    c_agreed = agreed;
  });
  platform.run_until(platform.scheduler().now() + kSecond);

  if (!c_ok) return fail("critical stream refused despite preemptable load");
  if (!a_gone || a_reason != transport::DisconnectReason::kPreempted)
    return fail("background stream not preempted");
  if (b_gone || !sb.connected()) return fail("normal stream should have survived");
  if (sa.connected()) return fail("preempted stream still reports connected");
  // Full preferred QoS: the freed reservation covered the new stream.
  if (c_agreed.osdu_rate < vq.frames_per_second - 1e-9)
    return fail("critical stream admitted degraded");
  const auto preempts = obs::Registry::global()
                            .counter("admission.preempt", {{"node", std::to_string(src1.id)}})
                            .value();
  if (preempts < 1) return fail("admission.preempt not counted");

  // The survivors keep playing.
  const auto f2 = sink2.stats().frames_rendered;
  const auto f3 = sink3.stats().frames_rendered;
  platform.run_until(platform.scheduler().now() + 2 * kSecond);
  if (sink2.stats().frames_rendered <= f2) return fail("normal stream playback stalled");
  if (sink3.stats().frames_rendered <= f3) return fail("critical stream playback stalled");
  return true;
}

/// A sink application with an on/off switch: consumes at the contracted
/// rate until stalled, consumes nothing while stalled.  Models the §3.7
/// slow-consumer case the watermark shedder exists for.
class StallSink : public platform::DeviceUser {
 public:
  StallSink(platform::Platform& platform, platform::Host& host, net::Tsap tsap)
      : DeviceUser(host.entity, tsap), platform_(platform) {}
  ~StallSink() override { tick_.cancel(); }

  void set_stalled(bool stalled) { stalled_ = stalled; }
  transport::Connection* conn() { return conn_; }
  std::int64_t consumed() const { return consumed_; }

 protected:
  void on_sink_ready(transport::VcId, transport::Connection& conn) override {
    conn_ = &conn;
    const double rate = conn.agreed_qos().osdu_rate;
    period_ = static_cast<Duration>(1e9 / (rate > 0 ? rate : 25.0));
    tick();
  }
  void on_disconnected(transport::VcId, transport::DisconnectReason) override {
    conn_ = nullptr;
    tick_.cancel();
  }

 private:
  void tick() {
    if (conn_ != nullptr && !stalled_) {
      if (conn_->receive()) ++consumed_;
    }
    tick_ = platform_.scheduler().after(period_, [this] { tick(); });
  }

  platform::Platform& platform_;
  transport::Connection* conn_ = nullptr;
  Duration period_ = 40 * kMillisecond;
  bool stalled_ = false;
  std::int64_t consumed_ = 0;
  sim::EventHandle tick_;
};

/// The sink application stops consuming for 3 s: the watermark shedder
/// drops stale OSDUs, the VC survives, and delivery resumes.
bool run_consumer_stall(std::uint64_t seed, unsigned threads) {
  platform::Platform platform(seed);
  platform.set_threads(threads);
  auto& src = platform.add_host("src");
  auto& ws = platform.add_host("ws");
  net::LinkConfig link;
  link.bandwidth_bps = 10'000'000;
  link.propagation_delay = 1 * kMillisecond;
  platform.network().add_link(src.id, ws.id, link);
  platform.network().finalize_routes();

  const platform::VideoQos vq = small_video();
  media::StoredMediaServer server(platform, src, "src");
  const net::NetAddress a = add_cbr_track(server, 100, 1, vq.frame_bytes(), true);
  StallSink sink(platform, ws, 200);

  platform::Stream s(platform, src, "stalled");
  s.set_buffer_osdus(8);
  s.set_shed_watermark(50);  // shed when the ring is half full and stuck
  bool connected = false;
  s.connect(a, {ws.id, 200}, vq, {}, [&](bool conn_ok, auto) { connected = conn_ok; });
  platform.run_until(500 * kMillisecond);
  if (!connected || sink.conn() == nullptr) return fail("stream did not connect");

  // Normal consumption, then a 3 s stall, then recovery.
  platform.run_until(2 * kSecond);
  if (sink.consumed() <= 0) return fail("no delivery before the stall");

  sink.set_stalled(true);
  platform.run_until(5 * kSecond);
  if (sink.conn()->stats().osdus_shed <= 0) return fail("stalled consumer shed nothing");
  if (!s.connected()) return fail("VC did not survive the stall");

  sink.set_stalled(false);
  const auto consumed_at_resume = sink.consumed();
  platform.run_until(9 * kSecond);
  if (sink.consumed() <= consumed_at_resume) return fail("delivery did not resume");
  if (!s.connected()) return fail("VC lost after the stall");
  // Shedding is bounded staleness, not teardown: the stream buffer blocked
  // the producer during the stall and the episode shows in the stats.
  if (sink.conn()->stats().osdus_delivered <= 0) return fail("no post-stall delivery stats");
  return true;
}

// ====================================================================
// City: 121 nodes, 96 streams in 12 federated domains, VC churn
// ====================================================================

constexpr int kDistricts = 12;
constexpr int kWsPerDistrict = 8;
constexpr net::Tsap kChurnTsap = 900;

/// Auto-accepting endpoint for the churn VCs; one per workstation, shared
/// by every slot that lands there.
class ChurnUser : public transport::TransportUser {
 public:
  explicit ChurnUser(transport::TransportEntity& entity) : entity_(&entity) {}
  void t_connect_indication(transport::VcId vc, const transport::ConnectRequest&) override {
    entity_->connect_response(vc, true);
  }
  void t_connect_confirm(transport::VcId, const transport::QosParams&) override {
    ++confirmed;
  }
  void t_disconnect_indication(transport::VcId, transport::DisconnectReason) override {
    ++disconnected;
  }
  int confirmed = 0;
  int disconnected = 0;

 private:
  transport::TransportEntity* entity_;
};

/// A low-rate control-class request for the churn VCs (tiny reservation,
/// so 32 concurrent slots never pressure the 96 pinned video contracts).
transport::ConnectRequest churn_request(net::NetAddress src, net::NetAddress dst) {
  transport::ConnectRequest req;
  req.initiator = src;
  req.src = src;
  req.dst = dst;
  req.qos.preferred.osdu_rate = 1.0;
  req.qos.preferred.max_osdu_bytes = 256;
  req.qos.preferred.end_to_end_delay = 200 * kMillisecond;
  req.qos.preferred.delay_jitter = 50 * kMillisecond;
  req.qos.preferred.packet_error_rate = 0.02;
  req.qos.preferred.bit_error_rate = 1e-5;
  req.qos.worst = req.qos.preferred;
  req.qos.worst.osdu_rate = 0.25;
  req.qos.worst.end_to_end_delay = kSecond;
  req.qos.worst.delay_jitter = 200 * kMillisecond;
  req.qos.worst.packet_error_rate = 0.1;
  req.qos.worst.bit_error_rate = 1e-3;
  return req;
}

struct District {
  platform::Host* hub = nullptr;
  platform::Host* server = nullptr;
  std::vector<platform::Host*> ws;
  std::unique_ptr<media::StoredMediaServer> store;
};

/// A core switch fanning out to 12 district hubs, each holding one media
/// server and 8 workstations; every district server feeds one video stream
/// to each of its workstations.
struct City {
  City(std::uint64_t seed, unsigned threads) : platform(seed) {
    platform.set_threads(threads);
    core = &platform.add_host("core");

    // Fan-out tree: trunks are 100 Mbit/s, the access links 10 Mbit/s.
    // Each district's 8 video reservations (~0.5 Mbit/s each) ride the
    // hub--server access link; churn VCs cross the core.
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

    // Media plane: one stored track per workstation, rendered there.
    platform::VideoQos vq;
    vq.frames_per_second = 10;
    int connected = 0;
    for (int d = 0; d < kDistricts; ++d) {
      District& dist = districts[d];
      dist.store = std::make_unique<media::StoredMediaServer>(
          platform, *dist.server, "store" + std::to_string(d));
      for (int w = 0; w < kWsPerDistrict; ++w) {
        media::TrackConfig track;
        track.track_id = static_cast<std::uint32_t>(d * kWsPerDistrict + w + 1);
        track.vbr.base_bytes = 512;
        const net::NetAddress src =
            dist.store->add_track(static_cast<net::Tsap>(100 + w), track);
        media::RenderConfig rc;
        rc.expect_track = track.track_id;
        sinks.push_back(std::make_unique<media::RenderingSink>(platform, *dist.ws[w],
                                                               net::Tsap{200}, rc));
        auto& s = streams.emplace_back(std::make_unique<platform::Stream>(
            platform, *dist.ws[w], "s" + std::to_string(track.track_id)));
        s->set_buffer_osdus(8);
        s->connect(src, {dist.ws[w]->id, net::Tsap{200}}, platform::MediaQos{vq}, {},
                   [&](bool ok, auto) { connected += ok; });
      }
    }
    platform.run_until(2 * kSecond);
    streams_connected = connected;

    // Churn endpoints: every workstation can terminate (and originate)
    // cross-district slots at a well-known TSAP.
    for (District& dist : districts)
      for (platform::Host* h : dist.ws) {
        churn_users.push_back(std::make_unique<ChurnUser>(h->entity));
        h->entity.bind(kChurnTsap, churn_users.back().get());
      }
  }

  platform::Host* ws(int district, int w) { return districts[district].ws[w]; }

  platform::Platform platform;
  platform::Host* core = nullptr;
  std::vector<District> districts;
  std::vector<std::unique_ptr<media::RenderingSink>> sinks;
  std::vector<std::unique_ptr<platform::Stream>> streams;
  std::vector<std::unique_ptr<ChurnUser>> churn_users;
  int streams_connected = 0;
};

/// One rotating churn slot: a cross-district VC owned by its source ws.
struct ChurnSlot {
  transport::TransportEntity* src_entity = nullptr;
  transport::VcId vc = transport::kInvalidVc;
};

/// Opens a fresh cross-district VC for `slot`; returns false on admission
/// failure (which the oracle treats as fatal — the reservations are sized
/// so the city never runs out of room for the churn class).
bool open_slot(City& city, Rng& rng, ChurnSlot& slot) {
  const int sd = static_cast<int>(rng.uniform(0, kDistricts - 1));
  const int dd = (sd + 1 + static_cast<int>(rng.uniform(0, kDistricts - 2))) % kDistricts;
  platform::Host* src = city.ws(sd, static_cast<int>(rng.uniform(0, kWsPerDistrict - 1)));
  platform::Host* dst = city.ws(dd, static_cast<int>(rng.uniform(0, kWsPerDistrict - 1)));
  slot.src_entity = &src->entity;
  slot.vc = src->entity.t_connect_request(
      churn_request({src->id, kChurnTsap}, {dst->id, kChurnTsap}));
  return slot.vc != transport::kInvalidVc;
}

bool run_city(std::uint64_t seed, unsigned threads, bool churn) {
  City city(seed, threads);
  if (city.streams_connected != kDistricts * kWsPerDistrict)
    return fail("not every media stream connected");

  // Federate: one domain per district.  Within a district the server
  // touches all 8 streams, so the §7 most-touches election seats the
  // domain agent on the district server.
  orch::FederationPolicy fp;
  fp.domain.interval = 100 * kMillisecond;
  fp.domain.allow_no_common_node = true;
  orch::FederatedHlo fed(city.platform.orchestrator(), fp);

  std::vector<std::vector<orch::OrchStreamSpec>> domains(kDistricts);
  for (int d = 0; d < kDistricts; ++d)
    for (int w = 0; w < kWsPerDistrict; ++w)
      domains[d].push_back(city.streams[static_cast<std::size_t>(d * kWsPerDistrict + w)]
                               ->orch_spec(2));

  bool established = false;
  if (!fed.orchestrate(std::move(domains), [&](bool ok, auto) { established = ok; }))
    return fail("federated orchestrate rejected");
  if (fed.domain_count() != kDistricts) return fail("domain count");
  for (int d = 0; d < kDistricts; ++d)
    if (fed.domain(static_cast<std::size_t>(d))->orchestrating_node() !=
        city.districts[static_cast<std::size_t>(d)].server->id)
      return fail("district server not elected as domain orchestrator");
  city.platform.run_until(4 * kSecond);
  if (!established) return fail("federation not established");

  orch::FailoverFleet fleet(
      city.platform.scheduler(), city.platform.orchestrator(),
      [&](net::NodeId n) { return &city.platform.host(n).llo; },
      [&](net::NodeId n) { return city.platform.node_alive(n); });
  fed.adopt_failover(fleet);
  if (fleet.session_count() != kDistricts) return fail("fleet adoption");

  bool primed = false, started = false;
  fed.prime(false, [&](bool ok, auto) { primed = ok; });
  city.platform.run_until(6 * kSecond);
  if (!primed) return fail("prime barrier");
  fed.start([&](bool ok, auto) { started = ok; });
  city.platform.run_until(7 * kSecond);
  if (!started) return fail("start barrier");

  // Churn window: 7 s .. 17 s.  One disconnect + reopen every 50 ms over 32
  // rotating slots, driven from the control shard between scheduler rounds
  // (the mixer itself is deterministic at every thread count).
  constexpr int kOps = 200;
  Rng rng(seed ^ 0xc17c17c17ull);
  std::vector<ChurnSlot> slots(churn ? 32 : 0);
  int attempted = 0, admission_failures = 0;
  for (auto& slot : slots) {
    ++attempted;
    if (!open_slot(city, rng, slot)) ++admission_failures;
  }
  Time t = city.platform.scheduler().now();
  for (int op = 0; op < kOps; ++op) {
    t += 50 * kMillisecond;
    city.platform.run_until(t);
    if (!churn) continue;
    ChurnSlot& slot = slots[static_cast<std::size_t>(op) % slots.size()];
    if (slot.vc != transport::kInvalidVc) slot.src_entity->t_disconnect_request(slot.vc);
    ++attempted;
    if (!open_slot(city, rng, slot)) ++admission_failures;
  }
  city.platform.run_until(t + kSecond);  // settle the last opens

  if (admission_failures != 0) return fail("churn admission failure");
  int confirmed = 0, disconnected = 0;
  for (const auto& u : city.churn_users) {
    confirmed += u->confirmed;
    disconnected += u->disconnected;
  }
  if (confirmed != attempted) return fail("churn opens not all confirmed");
  // Each release produces two indications: the courtesy one to the
  // requesting endpoint's bound user and the DR-driven one at the peer.
  if (churn && disconnected != 2 * kOps) return fail("churn releases not all seen");

  // Every workstation rendered; no stream starved anywhere in the city.
  std::int64_t frames_total = 0, frames_min = -1;
  for (const auto& sink : city.sinks) {
    const std::int64_t f = sink->stats().frames_rendered;
    frames_total += f;
    frames_min = frames_min < 0 ? f : std::min(frames_min, f);
  }
  if (frames_min <= 0) return fail("a sink rendered nothing");

  // The fan-in held: domains absorbed the per-VC report firehose and the
  // root saw only O(domains) digests per interval.
  const std::uint64_t root_agg = fed.root_aggregates_processed();
  std::uint64_t domain_reports = 0;
  for (std::size_t d = 0; d < fed.domain_count(); ++d)
    domain_reports += fed.domain_reports_processed(d);
  if (root_agg < 10 * kDistricts) return fail("root starved of aggregates");
  if (domain_reports < 4 * root_agg) return fail("fan-in ratio collapsed");
  for (std::size_t d = 0; d < fed.domain_count(); ++d) {
    if (fed.domain_rate_scale(d) < 0.95 || fed.domain_rate_scale(d) > 1.05)
      return fail("root steering outside the imperceptibility clamp");
  }
  if (fed.max_domain_skew_s() >= 0.5) return fail("federation misaligned");

  // Nothing failed over in a fault-free run.
  if (fleet.orphaned() != 0) return fail("orphaned session");
  for (std::size_t d = 0; d < fleet.session_count(); ++d)
    if (fleet.supervisor(d).failovers() != 0) return fail("spurious failover");

  std::printf("city: nodes=%zu districts=%d streams=%d/%d\n", city.platform.host_count(),
              kDistricts, city.streams_connected, kDistricts * kWsPerDistrict);
  std::printf("churn: attempted=%d confirmed=%d released=%d failures=%d\n", attempted,
              confirmed, disconnected, admission_failures);
  std::printf("federation: root_aggregates=%llu domain_reports=%llu fanin=%.1f\n",
              static_cast<unsigned long long>(root_agg),
              static_cast<unsigned long long>(domain_reports),
              static_cast<double>(domain_reports) / static_cast<double>(root_agg));
  std::printf("render: frames_total=%lld frames_min=%lld\n",
              static_cast<long long>(frames_total), static_cast<long long>(frames_min));
  return true;
}

// ====================================================================
// Registry
// ====================================================================

struct Scenario {
  const char* name;
  std::uint64_t seed;  // default --seed (determinism_check and TSan run it)
  std::function<bool(std::uint64_t seed, unsigned threads)> run;
  soak::Oracle oracle;  // post-run, beside soak::no_contract_violations
};

FailoverScenario split_brain(bool fencing) {
  return [fencing](FailoverWorld& w, sim::ChaosEngine& e, std::uint64_t seed) {
    return run_split_brain(w, e, seed, fencing);
  };
}

FailoverScenario byzantine_storm(bool hardening) {
  return [hardening](FailoverWorld& w, sim::ChaosEngine& e, std::uint64_t seed) {
    return run_byzantine_storm(w, e, seed, hardening);
  };
}

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = {
      {"crash_mid_stream", 5, in_failover_world(run_crash_mid_stream), soak::faults_injected},
      {"partition_prime_start", 5, in_failover_world(run_partition_prime_start),
       soak::faults_injected},
      {"orch_death", 5, in_failover_world(run_orch_death), soak::faults_injected},
      {"partition_heal_split_brain", 5, in_failover_world(split_brain(true)), soak::fenced},
      {"partition_heal_split_brain_unfenced", 5, in_failover_world(split_brain(false)),
       soak::unfenced},
      {"orch_flap", 5, in_failover_world(run_orch_flap), soak::faults_injected},
      {"fault_sweep", 5, run_fault_sweep, soak::faults_injected},
      {"byzantine_storm", 5, in_failover_world(byzantine_storm(true)), soak::wire_fought_back},
      {"byzantine_storm_unhardened", 5, in_failover_world(byzantine_storm(false)),
       soak::no_quarantine},
      {"dup_flood", 5, in_failover_world(run_dup_flood), soak::dups_dropped},
      {"goodput_contrast", 1, run_goodput_contrast, soak::no_quarantine},
      {"storm_recover", 7, run_storm_recover, soak::degraded},
      {"preempt", 7, run_preempt, soak::preempted},
      {"consumer_stall", 7, run_consumer_stall, soak::shed},
      {"steady", 7, [](std::uint64_t s, unsigned t) { return run_city(s, t, false); },
       soak::federated},
      {"churn", 3, [](std::uint64_t s, unsigned t) { return run_city(s, t, true); },
       soak::federated},
  };
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: soak --list | soak --scenario NAME [--seed N] [--threads N] [--json PATH]\n";
  std::string name, json_path;
  std::optional<std::uint64_t> seed;
  unsigned threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const Scenario& s : scenarios()) std::printf("%s\n", s.name);
      return 0;
    }
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fputs(usage, stderr);
      return 2;
    }
    if (std::strcmp(argv[i], "--scenario") == 0) {
      name = value;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = value;
    } else {
      std::fputs(usage, stderr);
      return 2;
    }
    ++i;
  }
  const Scenario* scenario = nullptr;
  for (const Scenario& s : scenarios())
    if (name == s.name) scenario = &s;
  if (scenario == nullptr) {
    std::fprintf(stderr, "soak: unknown scenario '%s' (see --list)\n", name.c_str());
    return 2;
  }

  const std::uint64_t run_seed = seed.value_or(scenario->seed);
  bool passed = scenario->run(run_seed, threads);
  for (soak::Oracle oracle : {soak::no_contract_violations, scenario->oracle}) {
    if (const char* broken = oracle(total)) passed = fail(broken);
  }

  if (!json_path.empty()) {
    obs::Labels meta = {{"scenario", name}, {"seed", std::to_string(run_seed)}};
    for (auto& kv : obs::run_meta()) meta.push_back(std::move(kv));
    obs::Registry::global().write_json(json_path, meta);
  }
  std::printf("soak: scenario %s seed %llu: %s\n", name.c_str(),
              static_cast<unsigned long long>(run_seed), passed ? "OK" : "FAILED");
  return passed ? 0 : 1;
}
