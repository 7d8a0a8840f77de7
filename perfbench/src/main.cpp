// End-to-end benchmark.
//
//   perfbench --workload <pcap_batch|service_stream|fleet_merge> --seed <n>
//             --seconds <s> --trace <0|1> [--tmp <dir>] [--trace-out <file>]
//
// Inputs are generated from the seed before any timing. The untraced run
// (--trace 0) times whole phases and reports the end-to-end metrics; the
// traced run (--trace 1) opens a span around each call into a layer and
// reports the per-layer ledger. Every run checks its output against a
// reference computation; a failed check prints no result and exits 1.
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

namespace {

struct Catalog {
  const char* name;
  const char* unit;
};

// BENCHMARK.json end_to_end, in order.
constexpr Catalog kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"state_bytes", "bytes"},
};

// BENCHMARK.json per_layer, in order. A workload that does not exercise a
// layer reports it as 0.
constexpr Catalog kPerLayer[] = {
    {"net.read_ns_per_frame", "ns"},
    {"net.frames", "count"},
    {"net.skipped", "count"},
    {"capture.on_packet_ns_per_packet", "ns"},
    {"capture.drain_ms_total", "ms"},
    {"capture.drain_calls", "count"},
    {"capture.open_flows_peak", "count"},
    {"capture.overload_evicted", "count"},
    {"capture.flows_out", "count"},
    {"analysis.ingest_ns_per_conn", "ns"},
    {"core.classify_ns", "ns"},
    {"world.geo_ns", "ns"},
    {"appproto.dpi_ns", "ns"},
    {"analysis.analyze_ns", "ns"},
    {"analysis.aggregate_ns.matrix", "ns"},
    {"analysis.aggregate_ns.asn", "ns"},
    {"analysis.aggregate_ns.timeseries", "ns"},
    {"analysis.aggregate_ns.version_protocol", "ns"},
    {"analysis.aggregate_ns.categories", "ns"},
    {"analysis.aggregate_ns.overlap", "ns"},
    {"analysis.aggregate_ns.evidence", "ns"},
    {"core.scanner_ns", "ns"},
    {"analysis.ledger_gap_pct", "pct"},
    {"analysis.state_bytes.matrix", "bytes"},
    {"analysis.state_bytes.asn", "bytes"},
    {"analysis.state_bytes.timeseries", "bytes"},
    {"analysis.state_bytes.version_protocol", "bytes"},
    {"analysis.state_bytes.categories", "bytes"},
    {"analysis.state_bytes.overlap", "bytes"},
    {"analysis.state_bytes.evidence", "bytes"},
    {"analysis.state_bytes.trends", "bytes"},
    {"analysis.report_ms", "ms"},
    {"obs.sample_trends_ms", "ms"},
    {"service.checkpoint_ms", "ms"},
    {"service.emit_ms", "ms"},
    {"service.boundary_ms", "ms"},
    {"service.stall_share", "ratio"},
    {"service.boundary_cpu_share", "ratio"},
    {"service.latency_p50_us", "us"},
    {"service.latency_p99_us", "us"},
    {"service.submit_ns", "ns"},
    {"service.backlog_peak", "count"},
    {"control.refused", "count"},
    {"control.peak_level", "level"},
    {"fleet.freshness_p50_ms", "ms"},
    {"fleet.freshness_p95_ms", "ms"},
    {"fleet.encode_ms", "ms"},
    {"fleet.partial_bytes", "bytes"},
    {"fleet.deliver_ms", "ms"},
    {"fleet.fold_ms", "ms"},
    {"fleet.render_ms", "ms"},
    {"fleet.rejected", "count"},
    {"fleet.stale", "count"},
    {"fleet.duplicates", "count"},
    {"fleet.late", "count"},
    {"bench.generator_late_ms", "ms"},
    {"bench.trace_overhead_pct", "pct"},
    {"bench.rss_growth_mb", "MiB"},
    {"bench.ops_failed_frac", "ratio"},
};

int usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <pcap_batch|service_stream|fleet_merge> "
               "--seed <n> --seconds <s> --trace <0|1> [--tmp <dir>] [--trace-out <file>]\n";
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.tmp_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--tmp") options.tmp_dir = value;
    else if (arg == "--trace-out") options.trace_out = value;
    else return usage(("unknown flag " + arg).c_str());
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Outcome out;
  try {
    if (options.workload == "pcap_batch") out = perfbench::run_pcap_batch(options);
    else if (options.workload == "service_stream") out = perfbench::run_service_stream(options);
    else if (options.workload == "fleet_merge") out = perfbench::run_fleet_merge(options);
    else return usage(("unknown workload '" + options.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (!out.correct) {
    std::cerr << "perfbench: correctness check failed: " << out.failure << "\n";
    return 1;
  }

  std::cout << options.workload << " seed=" << options.seed << " seconds=" << options.seconds
            << (options.trace ? " (traced)" : " (untraced)") << "\n";
  for (const std::string& l : out.lines) std::cout << l << "\n";

  std::ostringstream json;
  json << "{\"correct\": true, \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Catalog& c, const perfbench::Metric& m) {
    json << (first ? "" : ", ") << '"' << c.name << "\": {\"value\": " << number(m.value)
         << ", \"unit\": \"" << c.unit << "\"}";
    first = false;
  };
  if (options.trace) {
    std::cout << "  per-layer metrics (value unit, samples):\n";
    for (const Catalog& c : kPerLayer) {
      const auto it = out.metrics.find(c.name);
      const perfbench::Metric m = it != out.metrics.end() ? it->second : perfbench::Metric{};
      std::cout << perfbench::line(c.name, m.value, c.unit, "n=" + std::to_string(m.samples))
                << "\n";
      emit(c, m);
    }
  } else {
    for (const Catalog& c : kEndToEnd) {
      const auto it = out.metrics.find(c.name);
      if (it == out.metrics.end()) {
        std::cerr << "perfbench: " << options.workload << " did not measure " << c.name << "\n";
        return 1;
      }
      emit(c, it->second);
    }
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
