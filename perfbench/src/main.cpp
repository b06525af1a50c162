// cmtos_perfbench — the repository's benchmark driver.
//
//   cmtos_perfbench --workload pump_64k|city_churn|vc10k [--seed N]
//                   [--seconds S] [--trace 0|1] [--smoke] [--trace-out PATH]
//
// Runs one workload against the stack's public API on one executor thread,
// checks its outputs, and prints as the last line of stdout one JSON
// object {"correct","attempted","failed","metrics"}.  --trace 0 reports
// the end-to-end metrics; --trace 1 records the benchmark's own spans and
// reports the per-layer metrics instead (and writes the spans to
// --trace-out as Chrome trace-event JSON).  Exit status is 0 when the run
// completed, whether or not a check failed ("correct" says that).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, printed on every workload with --trace 0.
constexpr MetricSpec kEndToEnd[] = {
    {"osdu_per_wall_s", "OSDU/s"},    {"setup_s", "s"},
    {"allocs_per_osdu", "count"},     {"peak_rss_mib", "MiB"},
    {"heap_bytes_per_vc", "B"},       {"osdu_delay_ms_p50", "sim_ms"},
    {"osdu_delay_ms_p99", "sim_ms"},  {"connect_ms_p50", "sim_ms"},
    {"connect_ms_p95", "sim_ms"},
};

// The per-layer metrics, printed on every workload with --trace 1 (zero
// where a workload never enters the layer).
constexpr MetricSpec kPerLayer[] = {
    {"util.crc32_ns_per_kib", "ns"},
    {"util.crc_share_est", "fraction"},
    {"util.pool_misses_per_osdu", "count"},
    {"util.copied_bytes_per_osdu", "B"},
    {"sim.events_per_osdu", "count"},
    {"sim.events_per_wall_s", "1/s"},
    {"sim.run_until_share", "fraction"},
    {"sim.parallel_rounds", "count"},
    {"sim.serial_rounds", "count"},
    {"sim.events_per_round", "count"},
    {"sim.idle_events_per_vc_s", "count"},
    {"sim.live_events", "count"},
    {"net.packets_per_osdu", "count"},
    {"net.wire_bytes_per_osdu", "B"},
    {"net.queue_depth_max", "count"},
    {"net.drops", "count"},
    {"transport.submit_us_p50", "us"},
    {"transport.submit_us_p99", "us"},
    {"transport.receive_us_p50", "us"},
    {"transport.connect_call_us_p50", "us"},
    {"transport.connect_call_us_p99", "us"},
    {"transport.disconnect_call_us_p50", "us"},
    {"transport.churn_allocs_per_op", "count"},
    {"transport.tpdus_per_osdu", "count"},
    {"transport.retransmits", "count"},
    {"transport.osdus_skipped", "count"},
    {"transport.osdus_shed", "count"},
    {"orch.orchestrate_call_us", "us"},
    {"orch.prime_call_us", "us"},
    {"orch.start_call_us", "us"},
    {"orch.domain_reports_per_sim_s", "1/sim_s"},
    {"orch.root_aggregates_per_sim_s", "1/sim_s"},
    {"orch.fanin_ratio", "ratio"},
    {"orch.skew_ms_max", "sim_ms"},
    {"orch.ready_ms", "sim_ms"},
    {"platform.build_s", "s"},
    {"platform.stream_connect_s", "s"},
    {"media.frames_rendered", "count"},
    {"media.starvation_events", "count"},
    {"media.integrity_failures", "count"},
    {"obs.instruments", "count"},
    {"obs.instruments_per_churn_op", "count"},
    {"obs.snapshot_bytes", "B"},
    {"obs.snapshot_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: cmtos_perfbench --workload pump_64k|city_churn|vc10k [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--trace-out PATH]\n");
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Checks the report holds every canonical metric once, with its unit.
template <std::size_t N>
bool complete(const Report& r, const MetricSpec (&specs)[N]) {
  bool ok = true;
  std::set<std::string> seen;
  for (const Metric& m : r.metrics) {
    if (!seen.insert(m.name).second) {
      std::fprintf(stderr, "perfbench: metric %s reported twice\n", m.name.c_str());
      ok = false;
    }
  }
  for (const MetricSpec& s : specs) {
    bool found = false;
    for (const Metric& m : r.metrics)
      if (m.name == s.name) {
        found = true;
        if (m.unit != s.unit) {
          std::fprintf(stderr, "perfbench: metric %s has unit %s, expected %s\n", s.name,
                       m.unit.c_str(), s.unit);
          ok = false;
        }
      }
    if (!found) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", s.name);
      ok = false;
    }
  }
  return ok;
}

template <std::size_t N>
void print_result(const Report& r, const MetricSpec (&specs)[N]) {
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  std::printf("%-36s %18s  %s\n", "metric", "value", "unit");
  for (const MetricSpec& s : specs)
    for (const Metric& m : r.metrics)
      if (m.name == s.name) std::printf("%-36s %18.6g  %s\n", s.name, m.value, s.unit);
  std::printf("ops: attempted=%lld failed=%lld ops_failed_frac=%.6g\n",
              static_cast<long long>(r.attempted), static_cast<long long>(r.failed),
              static_cast<double>(r.failed) /
                  static_cast<double>(r.attempted > 0 ? r.attempted : 1));
  for (const std::string& f : r.failures) std::printf("FAILED: %s\n", f.c_str());

  std::string line = "{\"correct\": ";
  line += (r.failed == 0 && r.attempted > 0) ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& s : specs)
    for (const Metric& m : r.metrics)
      if (m.name == s.name) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        line += std::string(first ? "" : ", ") + "\"" + s.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + s.unit + "\"}";
        first = false;
      }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--smoke") == 0) {
      opt.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage();
    if (std::strcmp(a, "--workload") == 0) {
      opt.workload = v;
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(a, "--seconds") == 0) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(a, "--trace") == 0) {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(a, "--trace-out") == 0) {
      trace_out = v;
    } else {
      return usage();
    }
  }
  Report (*run)(const Options&) = nullptr;
  std::uint64_t default_seed = 0;
  if (opt.workload == "pump_64k") {
    run = run_pump_64k;
    default_seed = 97;
  } else if (opt.workload == "city_churn") {
    run = run_city_churn;
    default_seed = 1;
  } else if (opt.workload == "vc10k") {
    run = run_vc10k;
    default_seed = 20260807;
  } else {
    return usage();
  }
  if (!have_seed) opt.seed = default_seed;
  if (!(opt.seconds > 0)) return usage();

  std::printf(
      "meta: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"smoke\": %d, \"executor_threads\": 1, \"cpu\": \"%s\", \"nproc\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, opt.smoke ? 1 : 0, json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::fflush(stdout);

  const Report r = run(opt);
  spans().set_enabled(false);
  if (opt.trace ? !complete(r, kPerLayer) : !complete(r, kEndToEnd)) {
    for (const std::string& f : r.failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "perfbench: %s did not produce every metric\n", opt.workload.c_str());
    return 1;
  }
  if (opt.trace && !trace_out.empty()) {
    if (spans().write_chrome_trace(trace_out))
      std::printf("spans: %zu written to %s\n", spans().spans().size(), trace_out.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", trace_out.c_str());
  }
  if (opt.trace)
    print_result(r, kPerLayer);
  else
    print_result(r, kEndToEnd);
  return 0;
}
