#include "fleet/merger.h"

#include <algorithm>
#include <sstream>

#include "fleet/partial.h"
#include "obs/clock.h"
#include "service/checkpoint.h"

namespace tamper::fleet {

Merger::Merger(const world::World& world, MergerConfig config)
    : world_(world),
      config_(config),
      standing_(std::make_unique<analysis::Pipeline>(world)) {}

Merger::~Merger() {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_);
}

std::uint64_t Merger::max_epoch_locked() const {
  std::uint64_t max_epoch = 0;
  for (const auto& [pop, entry] : pops_)
    max_epoch = std::max(max_epoch, entry.epoch.value());
  return max_epoch;
}

std::uint64_t Merger::watermark_locked() const {
  const std::uint64_t max_epoch = max_epoch_locked();
  return max_epoch > config_.grace_epochs ? max_epoch - config_.grace_epochs : 0;
}

bool Merger::superseded_locked(const PartialHeader& h) {
  const auto it = pops_.find(h.pop);
  if (it == pops_.end()) return false;
  if (h.epoch == it->second.epoch && h.sequence == it->second.sequence) {
    ++stats_.duplicates;
    return true;
  }
  if (h.sequence < it->second.sequence ||
      (h.sequence == it->second.sequence && h.epoch < it->second.epoch)) {
    // Partials are cumulative: newer state already landed (e.g. a spool
    // replay arriving after a fresher delivery). Superseded, drop.
    ++stats_.stale;
    return true;
  }
  return false;
}

bool Merger::deliver(const std::string& payload) {
  {
    common::MutexLock lock(mu_);
    ++stats_.received;
    stats_.partial_bytes += payload.size();
  }
  const DecodeResult peek = peek_partial(payload);
  if (!peek.ok) {
    // Corrupt bytes are acknowledged: retrying them forever would wedge the
    // sender's spool behind a partial that can never get better.
    common::MutexLock lock(mu_);
    ++stats_.rejected;
    return true;
  }
  const PartialHeader h = peek.header;
  {
    common::MutexLock lock(mu_);
    if (superseded_locked(h)) return true;
  }

  // The expensive restore happens outside the lock; concurrent PoPs decode
  // in parallel, and the fold waits for a reader (refresh_view).
  auto pipeline = std::make_unique<analysis::Pipeline>(world_);
  const DecodeResult full = decode_partial(payload, *pipeline);
  common::MutexLock lock(mu_);
  if (!full.ok) {
    ++stats_.rejected;
    return true;
  }
  // Recheck: another delivery for this PoP may have landed while we were
  // decoding.
  if (superseded_locked(h)) return true;
  // Late is counted here, once the partial is sure to be merged (late data
  // still counts): one that is rejected, duplicate or stale is only that.
  if (h.epoch.value() < watermark_locked()) ++stats_.late;
  PopEntry& entry = pops_[h.pop];
  entry.epoch = h.epoch;
  entry.sequence = h.sequence;
  entry.overload = h.overload;
  entry.pipeline = std::move(pipeline);
  ++stats_.accepted;

  // Bounded-skew guard: a PoP whose reported epoch strays further than the
  // configured skew bound (in whole epochs) + grace from the fleet median
  // has a broken clock. Metrics-only — the detection depends on what has
  // arrived so far, so it must not feed the (order-invariant) report.
  if (pops_.size() >= 2) {
    std::vector<std::uint64_t> epochs;
    epochs.reserve(pops_.size());
    for (const auto& [pop, e] : pops_) epochs.push_back(e.epoch.value());
    std::sort(epochs.begin(), epochs.end());
    const std::uint64_t median = epochs[epochs.size() / 2];
    const std::uint64_t skew_epochs =
        config_.epoch_length_sec == 0
            ? 0
            : (static_cast<std::uint64_t>(std::max<std::int64_t>(0, config_.max_skew_sec)) +
               config_.epoch_length_sec - 1) /
                  config_.epoch_length_sec;
    const std::uint64_t bound = skew_epochs + config_.grace_epochs;
    const std::uint64_t distance = h.epoch.value() > median ? h.epoch.value() - median
                                                           : median - h.epoch.value();
    if (distance > bound) ++stats_.skew_detected;
  }
  return true;
}

Merger::Stats Merger::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

analysis::FleetCoverage Merger::coverage() const {
  common::MutexLock lock(mu_);
  return coverage_locked();
}

analysis::FleetCoverage Merger::coverage_locked() const {
  analysis::FleetCoverage c;
  c.pops_expected = config_.pops_expected;
  c.pops_reporting = static_cast<std::uint32_t>(pops_.size());
  c.max_epoch = max_epoch_locked();
  c.watermark = watermark_locked();

  for (std::uint32_t p = 0; p < config_.pops_expected; ++p) {
    const common::PopId pop(p);
    analysis::FleetPopStatus status;
    status.pop = pop;
    const auto it = pops_.find(pop);
    if (it == pops_.end()) {
      status.status = "silent";
    } else {
      status.last_epoch = it->second.epoch;
      status.samples = it->second.sequence;
      status.overload = control::name(it->second.overload.level);
      status.shed_samples = it->second.overload.shed_samples;
      if (c.max_epoch - it->second.epoch.value() >= config_.heartbeat_timeout_epochs) {
        status.status = "dead";
      } else if (it->second.epoch.value() < c.watermark) {
        status.status = "lagging";
      } else {
        status.status = "live";
      }
    }
    c.pops.push_back(std::move(status));
  }

  if (!pops_.empty()) {
    const std::uint64_t window =
        config_.coverage_window_epochs > 0 ? config_.coverage_window_epochs : 1;
    const std::uint64_t first =
        c.watermark >= window - 1 ? c.watermark - (window - 1) : 0;
    for (std::uint64_t e = first; e <= c.watermark; ++e) {
      analysis::FleetEpochCoverage epoch;
      epoch.epoch = common::EpochId(e);
      epoch.pops_expected = config_.pops_expected;
      // Partials are cumulative, so a PoP whose newest partial is at epoch
      // >= e has epoch e's data inside the merged aggregates. A PoP that
      // was shedding by epoch e contributed incompletely: its header
      // carries the capture time of the FIRST admission drop, so every
      // epoch from that point on is marked shedding — a pure function of
      // the partial set, never of arrival order.
      for (const auto& [pop, entry] : pops_) {
        if (entry.epoch.value() < e) continue;
        ++epoch.pops_reporting;
        if (entry.overload.shed_samples > 0 && entry.overload.first_shed_ts_sec > 0) {
          const std::uint64_t first_shed_epoch =
              config_.epoch_length_sec == 0
                  ? 0
                  : static_cast<std::uint64_t>(entry.overload.first_shed_ts_sec) /
                        config_.epoch_length_sec;
          if (first_shed_epoch <= e) ++epoch.pops_shedding;
        }
      }
      if (epoch.degraded()) c.degraded = true;
      c.epochs.push_back(epoch);
    }
  } else if (config_.pops_expected > 0) {
    c.degraded = true;  // a fully silent fleet is maximally degraded
  }
  return c;
}

Merger::Snapshot Merger::refresh_view() const {
  Snapshot now;
  {
    common::MutexLock lock(mu_);
    for (const auto& [pop, entry] : pops_) now.states.emplace(pop, entry.pipeline);
    now.coverage = coverage_locked();
  }
  if (now.states == folded_) return now;  // no partial since the last read

  const std::uint64_t start = fold_seconds_ != nullptr ? obs::monotonic_clock().now_ns() : 0;
  bool grew = true;
  for (const auto& [pop, state] : now.states) {
    const auto was = folded_.find(pop);
    if (was == folded_.end()) {
      standing_->merge_from(*state);  // a PoP's first partial is all growth
    } else if (was->second != state) {
      analysis::Pipeline growth(world_);
      grew = state->growth_since(*was->second, growth);
      if (!grew) break;
      standing_->merge_from(growth);
    }
  }
  if (grew) {
    std::vector<const obs::EpochRing*> rings;
    rings.reserve(now.states.size());
    for (const auto& [pop, state] : now.states) rings.push_back(&state->trends());
    standing_->refold_trends(rings);
  } else {
    // A state does not extend the one folded before it: fold every PoP
    // afresh.
    standing_ = std::make_unique<analysis::Pipeline>(world_);
    for (const auto& [pop, state] : now.states) standing_->merge_from(*state);
    common::MutexLock lock(mu_);
    ++stats_.rebuilds;
  }
  folded_ = now.states;
  if (fold_seconds_ != nullptr)
    fold_seconds_->observe(
        static_cast<double>(obs::monotonic_clock().now_ns() - start) * 1e-9);
  return now;
}

std::unique_ptr<analysis::Pipeline> Merger::merged_pipeline() const {
  auto copy = std::make_unique<analysis::Pipeline>(world_);
  common::MutexLock lock(view_mu_);
  refresh_view();
  copy->merge_from(*standing_);
  return copy;
}

std::vector<std::uint8_t> Merger::merged_state_image() const {
  common::MutexLock lock(view_mu_);
  refresh_view();
  return service::encode_checkpoint(*standing_, service::CheckpointMeta{});
}

Merger::FleetTrends Merger::fleet_trends() const {
  common::MutexLock lock(view_mu_);
  const Snapshot now = refresh_view();
  return fleet_trends(*standing_, now.coverage);
}

Merger::FleetTrends Merger::fleet_trends(
    const analysis::Pipeline& merged,
    const analysis::FleetCoverage& coverage) const {
  FleetTrends trends;
  // A coverage-degraded epoch must never be scored as a real rate shift:
  // feed the scan every epoch where PoPs were missing or shedding, plus the
  // epochs where the merged degraded-input series itself rose.
  std::set<std::int64_t> degraded =
      obs::epochs_where_rising(merged.trends(), "degraded");
  trends.epochs.reserve(coverage.epochs.size());
  for (const analysis::FleetEpochCoverage& e : coverage.epochs) {
    obs::EpochCoverageNote note;
    note.epoch = static_cast<std::int64_t>(e.epoch.value());
    note.pops_reporting = e.pops_reporting;
    note.pops_expected = e.pops_expected;
    note.pops_shedding = e.pops_shedding;
    note.degraded = e.degraded();
    trends.epochs.push_back(note);
    if (note.degraded) degraded.insert(note.epoch);
  }
  trends.scan = obs::scan_anomalies(merged.trends(),
                                    obs::default_series_catalog(),
                                    config_.anomaly, degraded);
  return trends;
}

std::string Merger::merged_report(analysis::ReportOptions options) const {
  common::MutexLock lock(view_mu_);
  const Snapshot now = refresh_view();
  const FleetTrends trends = fleet_trends(*standing_, now.coverage);
  options.fleet = &now.coverage;
  options.trend_epochs = &trends.epochs;
  options.trend_anomalies = &trends.scan.events;
  std::ostringstream out;
  analysis::write_radar_report(out, *standing_, options);
  return out.str();
}

std::string Merger::timeseries_dump(bool pretty) const {
  common::MutexLock lock(view_mu_);
  const Snapshot now = refresh_view();
  const FleetTrends trends = fleet_trends(*standing_, now.coverage);
  std::vector<obs::TimeseriesScope> scopes;
  scopes.reserve(1 + now.states.size());
  obs::TimeseriesScope fleet_scope;
  fleet_scope.name = "fleet";
  fleet_scope.ring = &standing_->trends();
  fleet_scope.epochs = trends.epochs;
  fleet_scope.anomalies = trends.scan.events;
  scopes.push_back(fleet_scope);
  for (const auto& [pop, state] : now.states) {
    obs::TimeseriesScope scope;
    scope.name = common::format(pop);
    scope.ring = &state->trends();
    scopes.push_back(scope);
  }
  std::ostringstream out;
  obs::write_timeseries_json(out, scopes,
                             static_cast<std::int64_t>(config_.epoch_length_sec),
                             pretty);
  return out.str();
}

void Merger::set_obs(obs::Registry* metrics) {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_);
  metrics_ = metrics;
  obs::Histogram* fold_seconds =
      metrics == nullptr ? nullptr
                         : &metrics
                                ->histogram_family("tamper_stage_seconds",
                                                   "Wall time per ledger stage", {"stage"},
                                                   obs::duration_buckets())
                                .with({"fold"});
  {
    common::MutexLock lock(view_mu_);
    fold_seconds_ = fold_seconds;
  }
  if (metrics == nullptr) return;
  obs::Registry& m = *metrics;
  auto& partials_family = m.counter_family(
      "tamper_fleet_partials_total",
      "Partial aggregates by disposition at the merger", {"result"});
  obs::Counter* received = &partials_family.with({"received"});
  obs::Counter* accepted = &partials_family.with({"accepted"});
  obs::Counter* duplicate = &partials_family.with({"duplicate"});
  obs::Counter* stale = &partials_family.with({"stale"});
  obs::Counter* late = &partials_family.with({"late"});
  obs::Counter* rejected = &partials_family.with({"rejected"});
  obs::Counter* skew = &m.counter("tamper_fleet_skew_detected_total",
                                  "Bounded-skew guard trips (PoP clock suspect)");
  obs::Counter* rebuilds = &m.counter(
      "tamper_fleet_rebuilds_total",
      "Standing merged view re-folded from every PoP (a partial refused growth)");
  obs::Counter* partial_bytes =
      &m.counter("tamper_fleet_partial_bytes_total", "Bytes of partials received");
  obs::Gauge* reporting =
      &m.gauge("tamper_fleet_pops_reporting", "PoPs with any partial received");
  obs::Gauge* expected = &m.gauge("tamper_fleet_pops_expected", "PoPs configured");
  obs::Gauge* watermark =
      &m.gauge("tamper_fleet_watermark_epoch", "Newest epoch considered closed");
  obs::Gauge* shedding = &m.gauge(
      "tamper_fleet_pops_shedding",
      "PoPs whose newest partial reports overload-control admission sheds");
  collector_ = m.add_collector([=, this] {
    Stats s;
    std::size_t pop_count = 0;
    std::size_t shedding_count = 0;
    std::uint64_t mark = 0;
    {
      common::MutexLock lock(mu_);
      s = stats_;
      pop_count = pops_.size();
      for (const auto& [pop, entry] : pops_)
        if (entry.overload.shed_samples > 0) ++shedding_count;
      mark = watermark_locked();
    }
    received->increment_to(s.received);
    accepted->increment_to(s.accepted);
    duplicate->increment_to(s.duplicates);
    stale->increment_to(s.stale);
    late->increment_to(s.late);
    rejected->increment_to(s.rejected);
    skew->increment_to(s.skew_detected);
    rebuilds->increment_to(s.rebuilds);
    partial_bytes->increment_to(s.partial_bytes);
    reporting->set(static_cast<double>(pop_count));
    expected->set(static_cast<double>(config_.pops_expected));
    watermark->set(static_cast<double>(mark));
    shedding->set(static_cast<double>(shedding_count));
  });
}

}  // namespace tamper::fleet
