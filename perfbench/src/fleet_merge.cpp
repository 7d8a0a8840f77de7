// fleet_merge: one thread. The benchmark plays 8 PoPs as Pipelines of its
// own, fed a seeded sample stream routed by anycast. Each PoP emits a
// cumulative partial (encode_partial) at FleetConfig's cadence into one
// Merger::deliver, and every delivery is followed by merged_report(). The
// stream cycles over a fixed pool after a warm-up pass, so PoP state stays
// near one size and every latency sample comes from one distribution.
#include <memory>
#include <sstream>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "bench.h"
#include "fleet/fleet.h"
#include "fleet/merger.h"
#include "fleet/partial.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "world/anycast.h"
#include "world/traffic.h"

namespace perfbench {
namespace {

namespace ta = tamper::analysis;
namespace tf = tamper::fleet;
using tamper::common::PopId;

constexpr std::uint32_t kPops = 8;
// The pool is 20 s of worldwide sampled traffic at the paper's rate:
// 90,000 samples, about 11,250 per PoP. Per-delivery cost grows with it,
// since no aggregate saturates (category and overlap state grow with
// distinct flows). At 20 s, a 30 s run on a 4-vCPU Xeon VM made 296-423
// deliveries, 1.5-2.1 times the 200 a p95 with ten beyond needs.
constexpr double kPoolWindowSec = 20.0;
constexpr auto kPoolSize = static_cast<std::size_t>(kPaperRatePerSec * kPoolWindowSec);
constexpr int kSetupReps = 9;
constexpr double kTailPct = 95.0;

const tf::FleetConfig& fleet_config() {
  static const tf::FleetConfig kConfig = [] {
    tf::FleetConfig config;
    config.pops = kPops;
    return config;
  }();
  return kConfig;
}

struct Inputs {
  std::vector<tamper::capture::ConnectionSample> pool;
  std::vector<std::uint32_t> route;  ///< owning PoP of each pool entry
};

Inputs make_inputs(std::uint64_t seed) {
  const tamper::world::World world(world_config());
  tamper::world::TrafficConfig traffic;
  traffic.seed = seed;
  tamper::world::TrafficGenerator generator(world, traffic);
  const tamper::world::AnycastMap anycast(kPops, seed);
  Inputs in;
  in.pool.reserve(kPoolSize);
  generator.generate(kPoolSize, [&](tamper::world::LabeledConnection&& conn) {
    const auto pop = anycast.route(conn.sample.client_ip);
    if (!pop) throw std::runtime_error("anycast left a client unrouted");
    in.route.push_back(pop->value());
    in.pool.push_back(std::move(conn.sample));
  });
  return in;
}

/// The merger and the PoPs feeding it.
struct System {
  System() {
    tf::MergerConfig mc = fleet_config().merger;
    mc.pops_expected = kPops;
    mc.epoch_length_sec = fleet_config().epoch_length_sec;
    merger = std::make_unique<tf::Merger>(world, mc);
    for (std::uint32_t p = 0; p < kPops; ++p) {
      registries.push_back(std::make_unique<tamper::obs::Registry>());
      pops.push_back(std::make_unique<ta::Pipeline>(world));
      tamper::obs::EpochRingConfig trends = fleet_config().trends;
      trends.epoch_length_sec = static_cast<std::int64_t>(fleet_config().epoch_length_sec);
      pops.back()->set_trends_config(trends);
      pops.back()->set_obs(registries.back().get());
    }
    samples.assign(kPops, 0);
  }

  /// The PoP's cumulative partial, tagged as Fleet tags it.
  [[nodiscard]] std::string partial(std::uint32_t p) const {
    tf::PartialHeader header;
    header.pop = PopId(p);
    header.sequence = samples[p];
    const std::int64_t ts = pops[p]->latest_ts_sec();
    const std::uint64_t epoch_len = fleet_config().epoch_length_sec;
    header.epoch = tamper::common::EpochId(
        ts <= 0 ? 0 : static_cast<std::uint64_t>(ts) / epoch_len);
    return tf::encode_partial(header, *pops[p]);
  }

  tamper::world::World world{world_config()};
  std::unique_ptr<tf::Merger> merger;
  std::vector<std::unique_ptr<tamper::obs::Registry>> registries;
  std::vector<std::unique_ptr<ta::Pipeline>> pops;
  std::vector<std::uint64_t> samples;  ///< cumulative samples per PoP
};

struct Names {
  SpanLog::NameId delivery, encode, deliver, render, fold, report, ingest, trends;
  explicit Names(SpanLog* log)
      : delivery(span_name(log, "fleet.delivery")),
        encode(span_name(log, "fleet.encode")),
        deliver(span_name(log, "fleet.deliver")),
        render(span_name(log, "fleet.render")),
        fold(span_name(log, "fleet.fold")),
        report(span_name(log, "analysis.report")),
        ingest(span_name(log, tamper::obs::stage::kIngest)),
        trends(span_name(log, "obs.sample_trends")) {}
};

struct Phase {
  std::vector<double> freshness_ms;
  std::vector<double> partial_bytes;
  double seconds = 0.0;
};

/// Streams the pool (continuing at `next`) until `budget_s` has passed.
Phase stream(System& sys, const Inputs& in, std::uint64_t& next, double budget_s,
             SpanLog* spans) {
  const Names names(spans);
  const std::uint64_t every = fleet_config().report_every_samples;
  Phase phase;
  const std::uint64_t start = now_ns();
  while (static_cast<double>(now_ns() - start) * 1e-9 < budget_s) {
    const std::size_t k = next++ % in.pool.size();
    const std::uint32_t p = in.route[k];
    {
      SpanLog::Scope s(spans, names.ingest);
      sys.pops[p]->ingest(in.pool[k]);
    }
    if (++sys.samples[p] % every != 0) continue;
    {
      // PoP-side emission work ahead of the partial, as the service does.
      SpanLog::Scope s(spans, names.trends);
      sys.pops[p]->sample_trends();
    }
    const std::uint64_t t0 = now_ns();
    {
      SpanLog::Scope delivery(spans, names.delivery);
      std::string partial;
      {
        SpanLog::Scope s(spans, names.encode);
        partial = sys.partial(p);
      }
      phase.partial_bytes.push_back(static_cast<double>(partial.size()));
      {
        SpanLog::Scope s(spans, names.deliver);
        sys.merger->deliver(partial);
      }
      SpanLog::Scope s(spans, names.render);
      const std::string json = sys.merger->merged_report();
    }
    phase.freshness_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (spans != nullptr) {
      // Ledger only, outside the freshness span: the fold on its own, and
      // the Radar render of the folded state.
      std::unique_ptr<ta::Pipeline> merged;
      {
        SpanLog::Scope s(spans, names.fold);
        merged = sys.merger->merged_pipeline();
      }
      SpanLog::Scope s(spans, names.report);
      std::ostringstream json;
      ta::write_radar_report(json, *merged);
    }
  }
  phase.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  return phase;
}

/// After each PoP sends its final partial, the merged aggregates must
/// equal direct ingests of the `fed` stream positions: every aggregator
/// against the per-PoP references folded together, and every aggregator
/// but the evidence CDFs against one monolithic ingest. (A merge
/// concatenates the PoPs' evidence samples, each capped on its own, while
/// one pipeline caps the whole stream, so only the fold can match there.)
void check(Outcome& out, System& sys, const Inputs& in, std::uint64_t fed) {
  for (std::uint32_t p = 0; p < kPops; ++p)
    if (sys.samples[p] % fleet_config().report_every_samples != 0)
      sys.merger->deliver(sys.partial(p));
  const auto merged = sys.merger->merged_pipeline();
  const tamper::world::World world(world_config());
  ta::Pipeline monolith(world);
  std::vector<std::unique_ptr<ta::Pipeline>> per_pop;
  for (std::uint32_t p = 0; p < kPops; ++p) per_pop.push_back(std::make_unique<ta::Pipeline>(world));
  for (std::uint64_t i = 0; i < fed; ++i) {
    const std::size_t k = i % in.pool.size();
    monolith.ingest(in.pool[k]);
    per_pop[in.route[k]]->ingest(in.pool[k]);
  }
  ta::Pipeline folded(world);
  for (const auto& pop : per_pop) folded.merge_from(*pop);
  std::string diff = first_differing_aggregator(*merged, folded);
  if (!diff.empty())
    out.fail("fleet_merge: aggregator '" + diff + "' differs from the folded per-PoP ingests");
  diff = first_differing_aggregator(*merged, monolith, {"evidence"});
  if (!diff.empty())
    out.fail("fleet_merge: aggregator '" + diff + "' differs from a direct ingest");
}

}  // namespace

Outcome run_fleet_merge(const Options& options) {
  Outcome out;
  const Inputs in = make_inputs(options.seed);

  Metric setup;
  const auto sys = timed_setup(kSetupReps, [] { return std::make_unique<System>(); }, setup);

  // Warm-up pass (untimed): every PoP ingests its share of the pool and
  // sends one partial, so the merger holds all eight before timing.
  const std::uint64_t warm0 = now_ns();
  std::uint64_t next = 0;
  for (; next < in.pool.size(); ++next) {
    sys->pops[in.route[next]]->ingest(in.pool[next]);
    ++sys->samples[in.route[next]];
  }
  for (std::uint32_t p = 0; p < kPops; ++p) {
    sys->pops[p]->sample_trends();
    sys->merger->deliver(sys->partial(p));
  }
  const double warmup_s = static_cast<double>(now_ns() - warm0) * 1e-9;

  const double rss_start = rss_mb();
  const Phase plain = stream(*sys, in, next, options.seconds, nullptr);
  const double rss_growth = rss_mb() - rss_start;

  SpanLog spans(100'000);
  Phase traced;
  if (options.trace) traced = stream(*sys, in, next, options.seconds / 2, &spans);

  check(out, *sys, in, next);
  const tf::Merger::Stats stats = sys->merger->stats();
  out.attempted = stats.received;
  out.failed = stats.rejected + stats.stale + stats.late + stats.duplicates;

  const std::uint64_t n = plain.freshness_ms.size();
  const double p50 = median(plain.freshness_ms);
  const double p95 = tail_percentile(plain.freshness_ms, kTailPct);
  const double rate = static_cast<double>(n) / plain.seconds;
  const std::uint64_t state = sys->merger->merged_state_image().size();
  const std::string deliveries = std::to_string(n) + " deliveries from " +
                                 std::to_string(kPops) + " PoPs";
  out.say(line("setup_s", setup.value, "s", std::to_string(setup.samples) + " set-ups"));
  out.say(line("fleet_deliveries_per_s", rate, "1/s", deliveries));
  out.say(line("fleet_freshness_p50_ms", p50, "ms", deliveries));
  out.say(line("fleet_freshness_p95_ms", p95, "ms",
               deliveries + "; " + beyond_note(n, kTailPct)));
  out.say(line("state_bytes", static_cast<double>(state), "bytes", "merged_state_image()"));
  out.say(line("rss_growth_mb", rss_growth, "MiB", "timed phase"));
  out.say(line("ops_failed_frac",
               stats.received == 0 ? 0.0 : static_cast<double>(out.failed) / stats.received, "",
               std::to_string(out.failed) + " of " + std::to_string(stats.received) +
                   " deliveries"));
  out.say("  merger: received " + std::to_string(stats.received) + ", accepted " +
          std::to_string(stats.accepted) + ", rejected " + std::to_string(stats.rejected) +
          ", stale " + std::to_string(stats.stale) + ", late " + std::to_string(stats.late) +
          ", duplicates " + std::to_string(stats.duplicates));
  out.say(line("warmup_s", warmup_s, "s", "untimed pool pass, excluded from setup_s"));

  if (!options.trace) {
    out.put("setup_s", setup.value, setup.samples);
    out.put("throughput_per_s", rate, n);
    out.put("state_bytes", static_cast<double>(state));
    return out;
  }

  const Names names(&spans);
  const auto mean_ms = [&](SpanLog::NameId id) {
    const auto& t = spans.totals(id);
    return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) * 1e-6 / t.count;
  };
  const auto count = [&](SpanLog::NameId id) { return spans.totals(id).count; };
  const auto& ingest = spans.totals(names.ingest);
  const double ingest_ns =
      ingest.count == 0 ? 0.0 : static_cast<double>(ingest.total_ns) / ingest.count;
  out.put("fleet.freshness_p50_ms", p50, n);
  out.put("fleet.freshness_p95_ms", p95, n);
  out.put("fleet.encode_ms", mean_ms(names.encode), count(names.encode));
  out.put("fleet.partial_bytes", mean(traced.partial_bytes), traced.partial_bytes.size());
  out.put("fleet.deliver_ms", mean_ms(names.deliver), count(names.deliver));
  out.put("fleet.fold_ms", mean_ms(names.fold), count(names.fold));
  out.put("fleet.render_ms", mean_ms(names.render), count(names.render));
  out.put("fleet.rejected", static_cast<double>(stats.rejected));
  out.put("fleet.stale", static_cast<double>(stats.stale));
  out.put("fleet.duplicates", static_cast<double>(stats.duplicates));
  out.put("fleet.late", static_cast<double>(stats.late));
  out.put("analysis.ingest_ns_per_conn", ingest_ns, ingest.count);
  out.put("analysis.report_ms", mean_ms(names.report), count(names.report));
  out.put("obs.sample_trends_ms", mean_ms(names.trends), count(names.trends));
  out.put("bench.trace_overhead_pct", (median(traced.freshness_ms) / p50 - 1.0) * 100.0,
          traced.freshness_ms.size());
  out.put("bench.rss_growth_mb", rss_growth);
  out.put("bench.ops_failed_frac",
          stats.received == 0 ? 0.0 : static_cast<double>(out.failed) / stats.received);
  put_state_bytes(out, *sys->merger->merged_pipeline());

  const double whole = mean_ms(names.delivery);
  out.say("  delivery ledger: mean per delivery vs fleet_freshness (" +
          std::to_string(count(names.delivery)) + " traced deliveries)");
  out.say(line("    delivery", whole, "ms"));
  out.say(line("      encode (fleet)", mean_ms(names.encode), "ms"));
  out.say(line("      deliver (fleet)", mean_ms(names.deliver), "ms"));
  out.say(line("      merged_report (fleet)", mean_ms(names.render), "ms"));
  out.say(line("        of which fold", mean_ms(names.fold), "ms", "timed apart"));
  out.say(line("        of which render", mean_ms(names.report), "ms", "timed apart"));
  stage_ledger(out, sys->world, in.pool, ingest_ns, &spans);
  if (!options.trace_out.empty() && !spans.write_chrome_json(options.trace_out))
    out.say("  (could not write " + options.trace_out + ")");
  return out;
}

}  // namespace perfbench
