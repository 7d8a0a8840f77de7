#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "analysis/aggregates.h"
#include "analysis/evidence.h"
#include "analysis/record.h"
#include "appproto/dpi.h"
#include "common/binio.h"
#include "core/classifier.h"
#include "core/scanner.h"
#include "obs/trace.h"

namespace perfbench {

namespace ta = tamper::analysis;

tamper::world::WorldConfig world_config() { return tamper::world::WorldConfig{}; }

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

TempDir::TempDir(const std::string& parent, const std::string& tag)
    : path_(std::filesystem::path(parent) /
            ("perfbench-" + tag + "-" + std::to_string(getpid()))) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::uint64_t snapshot_bytes(const ta::Pipeline& pipeline) {
  tamper::common::BinWriter w;
  pipeline.snapshot(w);
  return w.bytes().size();
}

const std::vector<std::string>& aggregator_names() {
  static const std::vector<std::string> kNames = {
      "matrix", "asn", "timeseries", "version_protocol", "categories", "overlap", "evidence"};
  return kNames;
}

std::vector<std::uint8_t> aggregator_snapshot(const ta::Pipeline& p, const std::string& name) {
  tamper::common::BinWriter w;
  if (name == "matrix") p.signatures().snapshot(w);
  else if (name == "asn") p.asns().snapshot(w);
  else if (name == "timeseries") p.timeseries().snapshot(w);
  else if (name == "version_protocol") p.version_protocol().snapshot(w);
  else if (name == "categories") p.categories().snapshot(w);
  else if (name == "overlap") p.overlap().snapshot(w);
  else if (name == "evidence") p.evidence().snapshot(w);
  else if (name == "trends") p.trends().snapshot(w);
  return w.take();
}

std::string first_differing_aggregator(const ta::Pipeline& got, const ta::Pipeline& want,
                                       const std::vector<std::string>& skip) {
  for (const std::string& name : aggregator_names()) {
    if (std::find(skip.begin(), skip.end(), name) != skip.end()) continue;
    if (aggregator_snapshot(got, name) != aggregator_snapshot(want, name)) return name;
  }
  return {};
}

void put_state_bytes(Outcome& out, const ta::Pipeline& pipeline) {
  for (const std::string& name : aggregator_names())
    out.put("analysis.state_bytes." + name,
            static_cast<double>(aggregator_snapshot(pipeline, name).size()));
  out.put("analysis.state_bytes.trends",
          static_cast<double>(aggregator_snapshot(pipeline, "trends").size()));
}

std::string beyond_note(std::size_t n, double q) {
  std::string note = std::to_string(beyond(n, q)) + " beyond";
  if (!tail_supported(n, q))
    note += ", fewer than " + std::to_string(kMinBeyond) + ": unsupported, reported as null";
  return note;
}

std::string line(const std::string& name, double value, const std::string& unit,
                 const std::string& detail) {
  std::ostringstream s;
  s << "  " << std::left << std::setw(34) << name << ' ' << std::setprecision(6) << value
    << ' ' << unit;
  if (!detail.empty()) s << "  (" << detail << ')';
  return s.str();
}

namespace {

/// Times one stage: `body(i)` for every flow, as a single span, and returns
/// ns per flow. Stage-at-a-time loops keep clock reads out of sub-100 ns
/// calls, which per-call timing would inflate several-fold.
template <class Body>
double time_stage(SpanLog* spans, SpanLog::NameId span, std::size_t n, Body body) {
  SpanLog::Scope scope(spans, span);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) body(i);
  return n == 0 ? 0.0 : static_cast<double>(now_ns() - t0) / static_cast<double>(n);
}

}  // namespace

void stage_ledger(Outcome& out, const tamper::world::World& world,
                  const std::vector<tamper::capture::ConnectionSample>& flows,
                  double ingest_ns_per_conn, SpanLog* spans) {
  namespace stage = tamper::obs::stage;
  const std::size_t n = flows.size();
  const tamper::core::SignatureClassifier classifier;  // Pipeline's default config
  const tamper::world::GeoDatabase& geo = world.geo();
  std::uint64_t sink = 0;  // keeps results observable

  SpanLog::Scope ledger(spans, span_name(spans, "ledger"));
  const auto span = [&](const std::string& name) { return span_name(spans, name); };

  const double classify_ns = time_stage(spans, span(stage::kClassify), n, [&](std::size_t i) {
    sink += classifier.classify(flows[i]).possibly_tampered;
  });
  const double geo_ns = time_stage(spans, span("world.geo"), n, [&](std::size_t i) {
    sink += geo.lookup_country(flows[i].client_ip).has_value();
    sink += geo.lookup_asn(flows[i].client_ip).has_value();
  });
  const double dpi_ns = time_stage(spans, span("appproto.dpi"), n, [&](std::size_t i) {
    if (const auto* payload = flows[i].first_data_payload())
      sink += tamper::appproto::inspect_payload(*payload).domain.has_value();
  });
  std::vector<ta::ConnectionRecord> records;
  records.reserve(n);
  const double analyze_ns = time_stage(spans, span("analysis.analyze"), n, [&](std::size_t i) {
    records.push_back(ta::analyze(flows[i], geo, classifier));
  });

  // The aggregators Pipeline::ingest feeds, fresh, in its order.
  ta::SignatureMatrix matrix;
  ta::AsnAggregator asns;
  ta::TimeSeries timeseries;
  ta::VersionProtocolAggregator version_protocol;
  ta::CategoryAggregator categories(
      [&world](const std::string& domain) -> std::optional<tamper::world::Category> {
        const auto rank = world.domains().rank_of(domain);
        if (!rank) return std::nullopt;
        return world.domains().by_rank(*rank).category;
      });
  ta::OverlapMatrix overlap;
  ta::EvidenceCollector evidence;
  std::vector<std::pair<std::string, double>> aggregate;
  {
    SpanLog::Scope all(spans, span(stage::kAggregate));
    const auto agg = [&](const std::string& name, auto add) {
      aggregate.emplace_back(name, time_stage(spans, span("aggregate." + name), n, add));
    };
    agg("matrix", [&](std::size_t i) { matrix.add(records[i]); });
    agg("asn", [&](std::size_t i) { asns.add(records[i]); });
    agg("timeseries", [&](std::size_t i) { timeseries.add(records[i]); });
    agg("version_protocol", [&](std::size_t i) { version_protocol.add(records[i]); });
    agg("categories", [&](std::size_t i) { categories.add(records[i]); });
    agg("overlap", [&](std::size_t i) { overlap.add(records[i]); });
    agg("evidence", [&](std::size_t i) { evidence.add(flows[i], records[i]); });
  }
  const double scanner_ns = time_stage(spans, span("core.scanner"), n, [&](std::size_t i) {
    sink += tamper::core::scanner_indicators(flows[i]).no_tcp_options;
  });
  [[maybe_unused]] volatile std::uint64_t observed = sink;  // keeps the stage calls live

  double aggregate_total = 0.0;
  for (const auto& [name, ns] : aggregate) aggregate_total += ns;
  const double staged = analyze_ns + aggregate_total + scanner_ns;
  const double gap_pct =
      ingest_ns_per_conn > 0 ? (ingest_ns_per_conn - staged) / ingest_ns_per_conn * 100.0 : 0.0;

  out.put("core.classify_ns", classify_ns, n);
  out.put("world.geo_ns", geo_ns, n);
  out.put("appproto.dpi_ns", dpi_ns, n);
  out.put("analysis.analyze_ns", analyze_ns, n);
  for (const auto& [name, ns] : aggregate) out.put("analysis.aggregate_ns." + name, ns, n);
  out.put("core.scanner_ns", scanner_ns, n);
  out.put("analysis.ledger_gap_pct", gap_pct, n);

  // Self times: analyze() contains classify, geo and DPI.
  const double analyze_self = analyze_ns - classify_ns - geo_ns - dpi_ns;
  const auto row = [&](const std::string& stage_name, double ns) {
    std::ostringstream s;
    s << "    " << std::left << std::setw(30) << stage_name << std::right << std::setw(10)
      << std::fixed << std::setprecision(1) << ns << " ns" << std::setw(9)
      << (ingest_ns_per_conn > 0 ? ns / ingest_ns_per_conn * 100.0 : 0.0) << " %";
    out.say(s.str());
  };
  out.say("  ingest ledger: stage self time per connection vs analysis.ingest_ns_per_conn (" +
          std::to_string(n) + " flows)");
  row("ingest (Pipeline::ingest)", ingest_ns_per_conn);
  row("  classify (core)", classify_ns);
  row("  geo (world)", geo_ns);
  row("  dpi (appproto)", dpi_ns);
  row("  analyze self (analysis)", analyze_self);
  for (const auto& [name, ns] : aggregate) row("  aggregate." + name, ns);
  row("  scanner (core)", scanner_ns);
  row("  gap (ingest - stages)", ingest_ns_per_conn - staged);
}

}  // namespace perfbench
