// cmtos/obs/metrics.h
//
// The metrics registry: named counters, gauges and histograms with
// free-form labels (per-node, per-role, per-bench-configuration), snapshot-
// able to JSON.  This is the measurement backbone the orchestration paper
// implies but never shows: every number that used to live in an ad-hoc
// fprintf — TPDU loss counts, blocking times, regulation drops, bench
// headline results — gets a stable name here so benches can emit
// machine-readable output and later perf work can diff runs.
//
// Concurrency: instrument handles returned by the registry are stable for
// the registry's lifetime.  Counter is safe for concurrent increment (the
// threaded buffer path uses it); Gauge uses atomic store/load; Histogram is
// intended for the single-threaded simulation and must not be shared
// across threads without external synchronisation.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace cmtos::obs {

/// Metric labels: ordered key/value pairs.  Part of the metric identity —
/// counter("x", {{"node","1"}}) and counter("x", {{"node","2"}}) are
/// distinct instruments.  Per-VC values are not registry rows: they live in
/// the component that owns the VC (VcStats, QoS reports, HLO stream state).
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void add(std::int64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-layout histogram: 64 power-of-two buckets (upper bound 2^i for
/// bucket i; values <= 1 land in bucket 0) plus exact count/sum/min/max.
/// Enough resolution for order-of-magnitude latency work without
/// per-instrument configuration.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double v);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  /// Approximate quantile (bucket upper bound); q in [0,1].
  double quantile(double q) const;
  const std::array<std::int64_t, kBuckets>& buckets() const { return buckets_; }

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// A named collection of instruments.  Lookup-or-create is mutex-guarded
/// and deterministic (instruments serialize in sorted key order); hold the
/// returned reference rather than re-looking-up on hot paths.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// Convenience: create-or-update a gauge in one call (bench headline
  /// metrics).
  void set_gauge(const std::string& name, double v, const Labels& labels = {}) {
    gauge(name, labels).set(v);
  }

  std::size_t size() const;
  /// Drops every instrument.  The references that live TransportEntity,
  /// LLO and HLO objects cache dangle afterwards, so call it only while no
  /// simulated world exists (perfbench clears between repetitions).
  void clear();

  /// Sum of every counter named `name`, across all label sets (0 when none
  /// exists).  Soak oracles read run totals through this instead of
  /// re-parsing to_json().
  std::int64_t total(const std::string& name) const;

  /// Snapshot as a JSON object: {"meta":{...},"metrics":[...]}.  `meta`
  /// entries (e.g. bench name, run parameters) are emitted as strings.
  std::string to_json(const Labels& meta = {}) const;

  /// Writes to_json() to `path`.  Returns false on I/O failure.
  bool write_json(const std::string& path, const Labels& meta = {}) const;

  /// Process-wide registry the protocol stack publishes into.
  static Registry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  static std::string key_of(const std::string& name, const Labels& labels);
  Entry& find_or_create(const std::string& name, const Labels& labels, Kind kind);

  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ CMTOS_GUARDED_BY(mu_);
};

}  // namespace cmtos::obs
