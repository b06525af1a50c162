// Shared pieces of the benchmark driver: wall clock, allocation counters,
// the in-memory span recorder, sample statistics, the metric report and a
// few canned transport helpers.
//
// Nothing here publishes into obs::Registry::global(): the registry's size
// and snapshot are themselves measured (obs.* metrics).

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "platform/host.h"
#include "transport/connection.h"

namespace perfbench {

using namespace cmtos;

// --- wall clock ----------------------------------------------------------

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(wall_ns() - t0_ns) * 1e-9;
}

// --- heap accounting (alloc_count.cpp replaces global new/delete) --------

std::int64_t heap_allocs();
std::int64_t heap_bytes();

/// Peak resident set (VmHWM) in MiB, or -1 when /proc is unavailable.
double peak_rss_mib();

// --- spans ---------------------------------------------------------------

/// The calls the benchmark times from outside.  Each kind is one layer
/// boundary; names print as "<layer>.<call>".
enum class SpanKind : std::uint8_t {
  kSetup,
  kWindow,
  kBlock,
  kRunUntil,     // sim: Scheduler::run_until
  kSubmit,       // transport: Connection::submit
  kReceive,      // transport: Connection::receive
  kConnect,      // transport: TransportEntity::t_connect_request
  kDisconnect,   // transport: TransportEntity::t_disconnect_request
  kOrchestrate,  // orch: FederatedHlo::orchestrate
  kPrime,        // orch: FederatedHlo::prime
  kStart,        // orch: FederatedHlo::start
  kBuild,        // platform: add_host/add_link/finalize_routes
  kStreamConnect,
  kSnapshot,     // obs: Registry::to_json
};

const char* span_name(SpanKind k);

/// In-memory span recorder: name, start, end, parent span and run id.
/// Disabled it costs one branch per call site; enabled it appends to a
/// vector and writes everything out once, after the run.
class SpanRecorder {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t run = 0;
    SpanKind kind = SpanKind::kSetup;
  };

  class Scope {
   public:
    Scope(SpanRecorder* rec, SpanKind kind);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_run(std::uint32_t run) { run_ = run; }

  Scope scope(SpanKind kind) { return Scope(enabled_ ? this : nullptr, kind); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (microseconds) of every span of `kind`.
  std::vector<double> durations_us(SpanKind kind) const;
  /// Summed duration (seconds) of spans of `kind`.
  double total_s(SpanKind kind) const;

  /// Chrome trace-event JSON ("X" events; args carry parent and run id).
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t run_ = 0;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// The process-wide recorder every workload writes into.
SpanRecorder& spans();

#define PB_CONCAT2(a, b) a##b
#define PB_CONCAT(a, b) PB_CONCAT2(a, b)
/// Times the rest of the enclosing block as one span of `kind`.
#define PB_SPAN(kind) auto PB_CONCAT(pb_span_, __LINE__) = ::perfbench::spans().scope(kind)

// --- statistics ------------------------------------------------------------

/// Nearest-rank quantile, q in [0,1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced: every metric it measured, the operation
/// tally behind `ops_failed_frac`, a line per failed check, and notes such
/// as the sample counts behind the percentiles.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts `n` attempted operations of which `bad` failed; `what` names
  /// the check in the failure list.
  void ops(const std::string& what, std::int64_t n, std::int64_t bad) {
    attempted += n;
    failed += bad;
    if (bad != 0) failures.push_back(what + ": " + std::to_string(bad) + " of " +
                                     std::to_string(n) + " failed");
  }
  /// One oracle: one attempted operation, failed when `ok` is false.
  void check(const std::string& what, bool ok) { ops(what, 1, ok ? 0 : 1); }
  /// Sets the four latency percentiles and notes their sample counts.
  void set_latencies(const std::vector<double>& delay_ms, const std::vector<double>& connect_ms);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
};

Report run_pump_64k(const Options& opt);
Report run_city_churn(const Options& opt);
Report run_vc10k(const Options& opt);

// --- transport helpers ---------------------------------------------------------

/// Auto-accepting transport user that times every connect it initiates
/// (request -> confirm, simulated time) and counts releases.
class TimedUser : public transport::TransportUser {
 public:
  TimedUser(platform::Platform& p, transport::TransportEntity& entity)
      : platform_(&p), entity_(&entity) {}

  /// Issues (and times) a connect; returns the VC or kInvalidVc.
  transport::VcId connect(const transport::ConnectRequest& req);
  /// Issues (and times) a release.
  void disconnect(transport::VcId vc);

  void t_connect_indication(transport::VcId vc, const transport::ConnectRequest&) override {
    entity_->connect_response(vc, true);
  }
  void t_connect_confirm(transport::VcId vc, const transport::QosParams&) override;
  void t_disconnect_indication(transport::VcId, transport::DisconnectReason) override {
    ++disconnected;
  }

  std::int64_t confirmed = 0;
  std::int64_t disconnected = 0;
  /// Request -> confirm, simulated ms, for connects this user initiated
  /// while `record_connects` was set.
  std::vector<double> connect_ms;
  bool record_connects = true;
  /// Allocations made inside the connect/disconnect calls themselves.
  std::int64_t call_allocs = 0;
  std::int64_t calls = 0;

 private:
  platform::Platform* platform_;
  transport::TransportEntity* entity_;
  std::unordered_map<transport::VcId, Time> requested_;
};

transport::ConnectRequest basic_request(net::NetAddress src, net::NetAddress dst, double rate,
                                        std::int64_t size);

/// Every directed link of a topology, for summing Link::stats().
struct LinkSet {
  std::vector<net::Link*> links;
  void add_pair(net::Network& n, net::NodeId a, net::NodeId b);
  std::int64_t packets() const;
  std::int64_t bytes() const;
  std::int64_t drops() const;
  std::size_t max_queue_depth() const;
};

/// Link-, sim- and util-layer totals sampled at one instant; a window's
/// work is the difference of two samples, summed over repetitions.
struct LayerCounters {
  std::int64_t packets = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t drops = 0;
  std::int64_t serial_rounds = 0;
  std::int64_t parallel_rounds = 0;
  std::int64_t allocs = 0;
  std::int64_t pool_misses = 0;
  std::int64_t copied_bytes = 0;
  std::int64_t events = 0;  // filled by the caller (run_until returns)

  static LayerCounters take(const LinkSet& links, const sim::Scheduler& s);
  LayerCounters operator-(const LayerCounters& o) const;
  LayerCounters& operator+=(const LayerCounters& o);
};

/// Transport-layer totals over the benchmark's own VCs (Connection::stats()).
struct VcTotals {
  std::int64_t osdus_submitted = 0;
  std::int64_t tpdus_sent = 0;
  std::int64_t retransmits = 0;
  std::int64_t skipped = 0;
  std::int64_t shed = 0;
  void add(const transport::Connection* source, const transport::Connection* sink);
};

/// ns for crc32() over one KiB, timed over the pump's 64 KiB template
/// frame for `seed` (median of several passes).
double crc32_ns_per_kib(std::uint64_t seed);

/// The 64 KiB template frame the pump submits for `seed`.
PayloadView pump_template(std::uint64_t seed);

/// Adds the util/sim/net per-layer metrics shared by every workload from
/// the window's counter delta.  `window_s` is the window's wall time and
/// `osdus` the OSDUs it delivered.
void add_common_layer_metrics(Report& r, const LayerCounters& window, double window_s,
                              std::int64_t osdus, double crc_ns_per_kib);

/// Adds transport.tpdus_per_osdu / retransmits / osdus_skipped / osdus_shed.
void add_vc_metrics(Report& r, const VcTotals& t);

/// Media-layer totals over the workload's RenderingSinks (zero without any).
struct MediaTotals {
  std::int64_t frames_rendered = 0;
  std::int64_t starvation_events = 0;
  std::int64_t integrity_failures = 0;
};
void add_media_metrics(Report& r, const MediaTotals& m);

/// Orchestration figures read from FederatedHlo (zero without any).
struct OrchFigures {
  double domain_reports_per_sim_s = 0;
  double root_aggregates_per_sim_s = 0;
  double fanin_ratio = 0;
  double skew_ms_max = 0;
  double ready_ms = 0;  // orchestrate -> start confirmed, simulated ms
};
void add_orch_metrics(Report& r, const OrchFigures& o);

/// Adds the obs.* snapshot metrics (one Registry::to_json()).
void add_obs_snapshot_metrics(Report& r);

/// Adds the span-derived per-layer metrics (zero where a workload makes no
/// such call) and the tracing overhead.
void add_span_metrics(Report& r, double overhead_pct);

/// Scheduler::run_until as one sim.run_until span; returns events fired.
std::size_t advance(platform::Platform& p, Time until);

/// Window throughput: OSDUs over window wall time.  In a traced run,
/// blocks alternate between spans on and off; the gap between the two
/// rates is the tracing overhead.
struct BlockRates {
  double osdus[2] = {0, 0};  // [untraced, traced]
  double wall_s[2] = {0, 0};
  void add(bool traced, std::int64_t n, double wall) {
    osdus[traced] += static_cast<double>(n);
    wall_s[traced] += wall;
  }
  double rate() const { return (osdus[0] + osdus[1]) / (wall_s[0] + wall_s[1]); }
  double overhead_pct() const {
    if (osdus[0] == 0 || osdus[1] == 0) return 0;
    return (osdus[0] / wall_s[0]) / (osdus[1] / wall_s[1]) * 100.0 - 100.0;
  }
};

/// The fat data-plane VC shared by pump_64k and vc10k: one rate-based
/// kIndicate VC carrying 64 KiB OSDUs at 250/s (pacing_burst 32), fed one
/// immutable template frame by refcount.
class Pump {
 public:
  static constexpr std::size_t kOsduBytes = 64 * 1024;
  static constexpr double kOsduRate = 250.0;

  Pump(platform::Platform& p, platform::Host& src, platform::Host& dst, std::uint64_t seed);

  /// Issues the connect (src TSAP 1 -> dst TSAP 2); the caller runs the
  /// simulation until it confirms, then calls attach().
  bool request();
  bool attach();

  /// Submits until the send ring is full.
  void submit_all();
  /// Pops every deliverable OSDU, checking a sample against the template
  /// and recording submit -> pop delay (simulated ms) when `record_delay`.
  void receive_all(bool record_delay);

  /// Stops submitting, runs `drain` of simulated time and pops the rest:
  /// afterwards every accepted OSDU must have been delivered.
  void drain(Duration drain);
  /// Releases the VC; returns true once the sink side saw the release
  /// after `settle` of simulated time.
  bool release(Duration settle);

  transport::Connection* source() const { return source_; }
  transport::Connection* sink() const { return sink_; }

  TimedUser src_user;
  TimedUser dst_user;
  std::int64_t accepted = 0;
  std::int64_t delivered = 0;
  std::int64_t sampled = 0;
  std::int64_t mismatched = 0;
  std::vector<double> delay_ms;

 private:
  platform::Platform* p_;
  platform::Host* src_;
  platform::Host* dst_;
  PayloadView frame_;
  transport::VcId vc_ = transport::kInvalidVc;
  transport::Connection* source_ = nullptr;
  transport::Connection* sink_ = nullptr;
};

}  // namespace perfbench
