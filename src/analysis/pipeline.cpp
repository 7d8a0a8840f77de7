#include "analysis/pipeline.h"

#include <algorithm>

namespace tamper::analysis {

namespace {

// ScannerStats fields in checkpoint order (snapshot, restore, merge_from).
constexpr std::array kScannerFields = {
    &Pipeline::ScannerStats::connections,
    &Pipeline::ScannerStats::no_tcp_options,
    &Pipeline::ScannerStats::high_ttl,
    &Pipeline::ScannerStats::syn_rst_matches,
    &Pipeline::ScannerStats::syn_rst_zmap,
};

}  // namespace

Pipeline::Pipeline(const world::World& world, core::ClassifierConfig classifier_config)
    : world_(world),
      classifier_(classifier_config),
      categories_([&world](const std::string& domain) -> std::optional<world::Category> {
        const auto rank = world.domains().rank_of(domain);
        if (!rank) return std::nullopt;
        return world.domains().by_rank(*rank).category;
      }) {}

Pipeline::~Pipeline() {
  if (obs_metrics_ != nullptr) obs_metrics_->remove_collector(obs_collector_);
}

void Pipeline::set_obs(obs::Registry* metrics, obs::Tracer* tracer,
                       const obs::Clock* clock) {
  if (obs_metrics_ != nullptr) obs_metrics_->remove_collector(obs_collector_);
  obs_metrics_ = metrics;
  tracer_ = tracer;
  obs_clock_ = clock != nullptr ? clock : &obs::monotonic_clock();
  obs_samples_ = nullptr;
  obs_classify_seconds_ = nullptr;
  class_connections_c_ = class_possibly_c_ = class_matched_c_ = nullptr;
  class_signature_fam_ = class_country_conn_fam_ = class_country_match_fam_ = nullptr;
  class_signature_mirror_.fill(nullptr);
  class_country_conn_mirror_.clear();
  class_country_match_mirror_.clear();
  ts_points_c_ = ts_dropped_c_ = nullptr;
  ts_series_g_ = ts_latest_epoch_g_ = nullptr;
  if (metrics == nullptr) return;

  obs_samples_ = &metrics->counter("tamper_pipeline_samples_total",
                                   "Samples presented to Pipeline::ingest");
  obs_classify_seconds_ = &metrics->histogram(
      "tamper_pipeline_classify_seconds",
      "Classify+aggregate latency per sample, sampled 1 in 64",
      obs::duration_buckets());
  auto& degraded_family = metrics->counter_family(
      "tamper_pipeline_degraded_total",
      "Degraded-input events by cause (mirrors DegradedStats)", {"cause"});
  std::array<obs::Counter*, kDegradedCauses.size()> mirrors{};
  for (std::size_t i = 0; i < mirrors.size(); ++i)
    mirrors[i] = &degraded_family.with({std::string(kDegradedCauses[i].label)});
  obs_collector_ = metrics->add_collector([this, mirrors] {
    const DegradedStats d = degraded();
    for (std::size_t i = 0; i < mirrors.size(); ++i)
      mirrors[i]->increment_to(d.*kDegradedCauses[i].field);
  });

  // Classification mirrors + trends bookkeeping. Registered here, written
  // only by sample_trends() on the worker thread — a collector would race
  // with the worker on the aggregates (they are worker-owned, unlocked).
  class_connections_c_ = &metrics->counter(
      "tamper_class_connections_total", "Connections classified (aggregate mirror)");
  class_possibly_c_ = &metrics->counter(
      "tamper_class_possibly_tampered_total",
      "Possibly-tampered connections (aggregate mirror)");
  class_matched_c_ = &metrics->counter(
      "tamper_class_matched_total",
      "Connections matching a tamper signature (aggregate mirror)");
  class_signature_fam_ = &metrics->counter_family(
      "tamper_class_signature_matches_total",
      "Signature matches by signature (aggregate mirror)", {"signature"});
  class_country_conn_fam_ = &metrics->counter_family(
      "tamper_class_country_connections_total",
      "Connections by country (aggregate mirror)", {"country"});
  class_country_match_fam_ = &metrics->counter_family(
      "tamper_class_country_matches_total",
      "Signature matches by country (aggregate mirror)", {"country"});
  ts_points_c_ = &metrics->counter("tamper_timeseries_points_total",
                                   "Points offered to the trends epoch ring");
  ts_dropped_c_ = &metrics->counter(
      "tamper_timeseries_dropped_total",
      "Points the trends ring refused (history window or series cap)");
  ts_series_g_ = &metrics->gauge("tamper_timeseries_series",
                                 "Distinct series held in the trends ring");
  ts_latest_epoch_g_ = &metrics->gauge("tamper_timeseries_latest_epoch",
                                       "Newest epoch with a recorded point");
}

void Pipeline::sample_trends() {
  const std::int64_t epoch = trends_.epoch_of(latest_ts_sec_);
  const DegradedStats d = degraded();
  const bool mirror = obs_metrics_ != nullptr;

  // The catalog's "agg:" sources point at the tamper_class_* registry
  // mirrors, which this pass updates alongside the ring (increment_to keeps
  // them idempotent across crash-resume re-derivation). One fused pass per
  // aggregate — the country loops walk matrix rows, mirror-handle maps, and
  // the ring in lockstep (all sorted by country), so each per-label sample
  // costs amortized-constant lookups and rollup sampling honors the ≤2%
  // overhead contract (DESIGN.md §12).
  if (mirror) {
    class_connections_c_->increment_to(matrix_.total_connections());
    class_possibly_c_->increment_to(matrix_.possibly_tampered());
    class_matched_c_->increment_to(matrix_.matched());
  }

  for (const obs::SeriesSpec& spec : obs::default_series_catalog()) {
    const bool from_agg = spec.source.rfind("agg:", 0) == 0;
    if (from_agg) {
      if (spec.family == "connections") {
        trends_.record_epoch(spec.family, "", spec.merge, epoch,
                             static_cast<double>(matrix_.total_connections()));
      } else if (spec.family == "possibly_tampered") {
        trends_.record_epoch(spec.family, "", spec.merge, epoch,
                             static_cast<double>(matrix_.possibly_tampered()));
      } else if (spec.family == "signature_matched") {
        trends_.record_epoch(spec.family, "", spec.merge, epoch,
                             static_cast<double>(matrix_.matched()));
      } else if (spec.family == "signature_matches") {
        for (std::size_t s = 0; s < core::kSignatureCount; ++s) {
          const auto sig = static_cast<core::Signature>(s);
          const std::uint64_t total = matrix_.signature_total(sig);
          if (total == 0) continue;
          if (mirror) {
            obs::Counter*& h = class_signature_mirror_[s];
            if (h == nullptr)
              h = &class_signature_fam_->with({std::string(core::name(sig))});
            h->increment_to(total);
          }
          trends_.record_epoch(spec.family, core::name(sig), spec.merge, epoch,
                               static_cast<double>(total));
        }
      } else if (spec.family == "country_connections") {
        obs::EpochRing::Cursor cursor(trends_);
        auto handle = class_country_conn_mirror_.begin();
        for (const auto& [cc, row] : matrix_.rows()) {
          if (mirror) {
            while (handle != class_country_conn_mirror_.end() && handle->first < cc)
              ++handle;
            if (handle == class_country_conn_mirror_.end() || handle->first != cc)
              handle = class_country_conn_mirror_.emplace_hint(
                  handle, cc, &class_country_conn_fam_->with({cc}));
            handle->second->increment_to(row.connections);
          }
          cursor.record_epoch(spec.family, cc, spec.merge, epoch,
                              static_cast<double>(row.connections));
        }
      } else if (spec.family == "country_matches") {
        obs::EpochRing::Cursor cursor(trends_);
        auto handle = class_country_match_mirror_.begin();
        for (const auto& [cc, row] : matrix_.rows()) {
          if (row.matches == 0) continue;
          if (mirror) {
            while (handle != class_country_match_mirror_.end() && handle->first < cc)
              ++handle;
            if (handle == class_country_match_mirror_.end() || handle->first != cc)
              handle = class_country_match_mirror_.emplace_hint(
                  handle, cc, &class_country_match_fam_->with({cc}));
            handle->second->increment_to(row.matches);
          }
          cursor.record_epoch(spec.family, cc, spec.merge, epoch,
                              static_cast<double>(row.matches));
        }
      } else if (spec.family == "degraded") {
        // Coverage loss only (not d.total()): noise counters like a single
        // empty flow must not mark the whole epoch degraded and suppress
        // the watchdog scan for it.
        trends_.record_epoch(spec.family, "", spec.merge, epoch,
                             static_cast<double>(d.coverage_loss()));
      }
      continue;
    }
    // "metric:" sources read the registry; an absent family (e.g. overload
    // control disabled) is simply not sampled.
    if (!mirror) continue;
    const std::string_view metric =
        std::string_view(spec.source).substr(std::string_view("metric:").size());
    double value = 0.0;
    if (obs_metrics_->read_family_total(metric, &value))
      trends_.record_epoch(spec.family, "", spec.merge, epoch, value);
  }

  if (obs_metrics_ != nullptr) {
    ts_points_c_->increment_to(trends_.recorded_points());
    ts_dropped_c_->increment_to(trends_.dropped_points());
    ts_series_g_->set(static_cast<double>(trends_.series().size()));
    ts_latest_epoch_g_->set(
        trends_.empty() ? 0.0 : static_cast<double>(trends_.max_epoch()));
  }
}

// tamperlint: nothrow-path
void Pipeline::ingest(const capture::ConnectionSample& sample) noexcept {
  obs::Tracer::Span ingest_span(tracer_, obs::stage::kIngest, obs::stage::kCategory);
  std::uint64_t seq = 0;
  if (obs_samples_ != nullptr) seq = obs_samples_->add();
  // A flow with no packets was never actually observed at the tap (e.g. the
  // SYN itself was lost upstream).
  if (sample.packets.empty()) {
    common::MutexLock lock(stats_mu_);
    ++degraded_.empty_samples;
    return;
  }
  if (sample.observation_end_sec > latest_ts_sec_)
    latest_ts_sec_ = sample.observation_end_sec;
  // Sampled latency probe: 1 in 64 keeps the steady-state cost of the
  // instrumentation to two relaxed fetch_adds per sample.
  const bool timed = obs_classify_seconds_ != nullptr && (seq & 63) == 1;
  const std::uint64_t t0 = timed ? obs_clock_->now_ns() : 0;
  try {
    obs::Tracer::Span classify_span(tracer_, obs::stage::kClassify,
                                    obs::stage::kCategory);
    const ConnectionRecord record =
        analyze(sample, world_.geo(), classifier_,
                /*parse_app_proto=*/!evidence_only_.load(std::memory_order_relaxed));
    classify_span.finish();
    obs::Tracer::Span aggregate_span(tracer_, obs::stage::kAggregate,
                                     obs::stage::kCategory);
    matrix_.add(record);
    asns_.add(record);
    timeseries_.add(record);
    version_protocol_.add(record);
    categories_.add(record);
    overlap_.add(record);
    evidence_.add(sample, record);

    ++scanner_.connections;
    const core::ScannerIndicators indicators = core::scanner_indicators(sample);
    if (indicators.no_tcp_options) ++scanner_.no_tcp_options;
    if (indicators.high_ttl) ++scanner_.high_ttl;
    if (record.classification.signature == core::Signature::kSynRst) {
      ++scanner_.syn_rst_matches;
      if (indicators.likely_zmap()) ++scanner_.syn_rst_zmap;
    }
  } catch (...) {
    // One hostile sample must not take down the service; count and move on.
    common::MutexLock lock(stats_mu_);
    ++degraded_.ingest_errors;
  }
  if (timed)
    obs_classify_seconds_->observe(
        static_cast<double>(obs_clock_->now_ns() - t0) * 1e-9);
}

void Pipeline::run(world::TrafficGenerator& generator, std::size_t connections) {
  generator.generate(connections,
                     [this](world::LabeledConnection&& conn) { ingest(conn.sample); });
}

void Pipeline::snapshot(common::BinWriter& w) const {
  {
    common::MutexLock lock(stats_mu_);
    for (const DegradedCause& cause : kDegradedCauses) w.u64(degraded_.*cause.field);
  }
  for (const auto field : kScannerFields) w.u64(scanner_.*field);
  w.i64(latest_ts_sec_);

  matrix_.snapshot(w);
  asns_.snapshot(w);
  timeseries_.snapshot(w);
  version_protocol_.snapshot(w);
  categories_.snapshot(w);
  overlap_.snapshot(w);
  evidence_.snapshot(w);
  trends_.snapshot(w);
}

void Pipeline::restore(common::BinReader& r) {
  {
    common::MutexLock lock(stats_mu_);
    for (const DegradedCause& cause : kDegradedCauses) degraded_.*cause.field = r.u64();
    // A restored process reads fresh sources whose cumulative counters
    // start at zero again; the delta baselines must follow.
    last_ = {};
  }
  for (const auto field : kScannerFields) scanner_.*field = r.u64();
  latest_ts_sec_ = r.i64();

  matrix_.restore(r);
  asns_.restore(r);
  timeseries_.restore(r);
  version_protocol_.restore(r);
  categories_.restore(r);
  overlap_.restore(r);
  evidence_.restore(r);
  trends_.restore(r);
}

void Pipeline::merge_from(const Pipeline& other) {
  {
    // Lock ordering: this->stats_mu_ before other.stats_mu_. The merger
    // only ever folds decoded partials (never two live pipelines that could
    // merge into each other), so the order cannot invert.
    common::MutexLock lock(stats_mu_);
    const DegradedStats od = other.degraded();
    for (const DegradedCause& cause : kDegradedCauses)
      degraded_.*cause.field += od.*cause.field;
  }
  for (const auto field : kScannerFields) scanner_.*field += other.scanner_.*field;
  if (other.latest_ts_sec_ > latest_ts_sec_) latest_ts_sec_ = other.latest_ts_sec_;

  matrix_.merge(other.matrix_);
  asns_.merge(other.asns_);
  timeseries_.merge(other.timeseries_);
  version_protocol_.merge(other.version_protocol_);
  categories_.merge(other.categories_);
  overlap_.merge(other.overlap_);
  evidence_.merge(other.evidence_);
  trends_.merge_from(other.trends_);
}

bool Pipeline::growth_since(const Pipeline& old, Pipeline& growth) const {
  CounterDiff diff;
  {
    const DegradedStats was = old.degraded();
    const DegradedStats is = degraded();
    common::MutexLock lock(growth.stats_mu_);
    for (const DegradedCause& cause : kDegradedCauses)
      diff(was.*cause.field, is.*cause.field, growth.degraded_.*cause.field);
  }
  for (const auto field : kScannerFields)
    diff(old.scanner_.*field, scanner_.*field, growth.scanner_.*field);
  if (diff.fell) return false;
  // latest_ts_sec merges by max, so D carries ours when it rose and the
  // identity's 0 when it did not (ours, when that is negative, so that
  // old ⊕ D stays at old).
  if (latest_ts_sec_ < old.latest_ts_sec_) return false;
  growth.latest_ts_sec_ = latest_ts_sec_ > old.latest_ts_sec_
                              ? latest_ts_sec_
                              : std::min<std::int64_t>(latest_ts_sec_, 0);

  return matrix_.growth_since(old.matrix_, growth.matrix_) &&
         asns_.growth_since(old.asns_, growth.asns_) &&
         timeseries_.growth_since(old.timeseries_, growth.timeseries_) &&
         version_protocol_.growth_since(old.version_protocol_, growth.version_protocol_) &&
         categories_.growth_since(old.categories_, growth.categories_) &&
         overlap_.growth_since(old.overlap_, growth.overlap_) &&
         evidence_.growth_since(old.evidence_, growth.evidence_);
}

void Pipeline::refold_trends(const std::vector<const obs::EpochRing*>& rings) {
  trends_ = obs::EpochRing();
  for (const obs::EpochRing* ring : rings) trends_.merge_from(*ring);
}

}  // namespace tamper::analysis
