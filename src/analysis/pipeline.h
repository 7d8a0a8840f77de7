// One-stop analysis pipeline: classify each sampled connection, attribute
// it, and feed every aggregator. Benches and examples run a scenario
// through a Pipeline and then read the aggregates behind each table/figure.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/aggregates.h"
#include "analysis/evidence.h"
#include "analysis/record.h"
#include "capture/sampler.h"
#include "common/binio.h"
#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/classifier.h"
#include "core/scanner.h"
#include "net/pcap.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "world/traffic.h"
#include "world/world.h"

namespace tamper::analysis {

/// Degraded-input accounting: everything the ingest path dropped, clamped
/// or force-closed instead of crashing on. Exported by analysis::report so
/// operational skew from hostile/corrupt input is visible next to the
/// aggregates it may have biased.
struct DegradedStats {
  std::uint64_t empty_samples = 0;        ///< flows with zero logged packets
  std::uint64_t ingest_errors = 0;        ///< exceptions swallowed by ingest()
  std::uint64_t malformed_packets = 0;    ///< sampler: hostile/garbage packets
  std::uint64_t overload_evicted = 0;     ///< sampler: flows closed at max_flows
  std::uint64_t unparseable_frames = 0;   ///< reader: non-IP / parse failures
  std::uint64_t oversize_frames = 0;      ///< reader: hostile incl_len skipped
  std::uint64_t truncated_frames = 0;     ///< reader: short records
  std::uint64_t queue_shed_embryonic = 0; ///< service: backpressure shed (embryonic)
  std::uint64_t queue_shed_other = 0;     ///< service: backpressure shed (forced)
  std::uint64_t spool_replay_failures = 0; ///< sink: spooled reports lost at replay
  std::uint64_t spool_dropped = 0;         ///< sink: spool cap evictions (oldest-first)
  // Overload-control admission refusals (control::OverloadController), by
  // DropReason — every sample the admission gate turned away, so shed load
  // is visible next to the aggregates it thinned.
  std::uint64_t admission_rate_limited = 0;   ///< token bucket empty
  std::uint64_t admission_sampled_down = 0;   ///< ladder stride skipped it
  std::uint64_t admission_embryonic_shed = 0; ///< embryonic shed at admission
  std::uint64_t admission_rejected = 0;       ///< kShedding refused the flow

  [[nodiscard]] constexpr std::uint64_t total() const noexcept;

  /// Coverage loss: samples/flows removed from aggregation entirely — what
  /// the anomaly watchdog's `degraded` trends series tracks (DESIGN.md §12).
  /// Excludes input *noise* that biases no rate (empty flows, malformed
  /// packets inside an observed flow) and report-delivery losses (spool_*,
  /// surfaced at the merger as missing partials): a stray junk flow per
  /// epoch must not blind the watchdog for that epoch.
  [[nodiscard]] constexpr std::uint64_t coverage_loss() const noexcept;
};

/// One degraded-input cause. kDegradedCauses is the only place a cause is
/// declared: the metric mirror, the checkpoint/partial codec, merge_from
/// and the Radar JSON `degraded_input` block all iterate it.
struct DegradedCause {
  std::uint64_t DegradedStats::* field;
  std::string_view label;  ///< tamper_pipeline_degraded_total `cause` label
  bool coverage_loss;      ///< counts toward DegradedStats::coverage_loss()
  std::string_view json_key = {};  ///< Radar JSON key when it differs from label

  [[nodiscard]] constexpr std::string_view radar_key() const noexcept {
    return json_key.empty() ? label : json_key;
  }
};

/// In checkpoint-v4 byte order: adding, removing or reordering a row
/// changes the checkpoint and partial layout, so it is a version bump.
inline constexpr std::array<DegradedCause, 15> kDegradedCauses = {{
    {&DegradedStats::empty_samples, "empty_samples", false},
    {&DegradedStats::ingest_errors, "ingest_errors", true},
    {&DegradedStats::malformed_packets, "malformed_packets", false},
    // The Radar key predates the label and is frozen by the report schema.
    {&DegradedStats::overload_evicted, "overload_evicted", true, "overload_evicted_flows"},
    {&DegradedStats::unparseable_frames, "unparseable_frames", true},
    {&DegradedStats::oversize_frames, "oversize_frames", true},
    {&DegradedStats::truncated_frames, "truncated_frames", true},
    {&DegradedStats::queue_shed_embryonic, "queue_shed_embryonic", true},
    {&DegradedStats::queue_shed_other, "queue_shed_other", true},
    {&DegradedStats::spool_replay_failures, "spool_replay_failures", false},
    {&DegradedStats::spool_dropped, "spool_dropped", false},
    {&DegradedStats::admission_rate_limited, "admission_rate_limited", true},
    {&DegradedStats::admission_sampled_down, "admission_sampled_down", true},
    {&DegradedStats::admission_embryonic_shed, "admission_embryonic_shed", true},
    {&DegradedStats::admission_rejected, "admission_rejected", true},
}};

constexpr std::uint64_t DegradedStats::total() const noexcept {
  std::uint64_t sum = 0;
  for (const DegradedCause& cause : kDegradedCauses) sum += this->*cause.field;
  return sum;
}

constexpr std::uint64_t DegradedStats::coverage_loss() const noexcept {
  std::uint64_t sum = 0;
  for (const DegradedCause& cause : kDegradedCauses)
    if (cause.coverage_loss) sum += this->*cause.field;
  return sum;
}

class Pipeline {
 public:
  explicit Pipeline(const world::World& world,
                    core::ClassifierConfig classifier_config = {});
  ~Pipeline();

  /// Attach observability. The registry gains the tamper_pipeline_* metric
  /// families (see DESIGN.md §9) plus a collector that mirrors the
  /// DegradedStats counters at every snapshot; the tracer (optional)
  /// receives ingest/classify/aggregate spans per sample. The classify
  /// duration histogram is sampled 1-in-64 so the hot path stays a couple
  /// of relaxed fetch_adds. All three must outlive the pipeline.
  void set_obs(obs::Registry* metrics, obs::Tracer* tracer = nullptr,
               const obs::Clock* clock = nullptr);

  /// Classify + attribute one sample and update all aggregators. Never
  /// throws: degraded input is counted (see degraded()) and dropped.
  void ingest(const capture::ConnectionSample& sample) noexcept;

  /// Convenience: run `connections` of generated traffic through the
  /// pipeline (ground truth is dropped on the floor — validation tests use
  /// the generator directly).
  void run(world::TrafficGenerator& generator, std::size_t connections);

  [[nodiscard]] const SignatureMatrix& signatures() const noexcept { return matrix_; }
  [[nodiscard]] const AsnAggregator& asns() const noexcept { return asns_; }
  [[nodiscard]] const TimeSeries& timeseries() const noexcept { return timeseries_; }
  [[nodiscard]] const VersionProtocolAggregator& version_protocol() const noexcept {
    return version_protocol_;
  }
  [[nodiscard]] const CategoryAggregator& categories() const noexcept { return categories_; }
  [[nodiscard]] const OverlapMatrix& overlap() const noexcept { return overlap_; }
  [[nodiscard]] const EvidenceCollector& evidence() const noexcept { return evidence_; }

  struct ScannerStats {
    std::uint64_t connections = 0;
    std::uint64_t no_tcp_options = 0;
    std::uint64_t high_ttl = 0;
    std::uint64_t syn_rst_matches = 0;       ///< connections matching ⟨SYN → RST⟩
    std::uint64_t syn_rst_zmap = 0;          ///< ... attributable to ZMap
  };
  [[nodiscard]] const ScannerStats& scanner_stats() const noexcept { return scanner_; }

  [[nodiscard]] const core::SignatureClassifier& classifier() const noexcept {
    return classifier_;
  }

  /// Degraded-input accounting. Capture-side counters arrive via the
  /// record_* helpers. The source Stats are cumulative, so each helper is
  /// idempotent: it remembers the last snapshot and adds only the delta —
  /// safe to call periodically from a long-running service. A counter that
  /// moves backwards means a fresh source; its full value is re-added.
  ///
  /// Unlike the aggregators (worker-thread-owned until the run ends), the
  /// degraded counters are behind a mutex so a monitoring thread can read
  /// them while the worker is mid-ingest; degraded() returns a consistent
  /// copy.
  [[nodiscard]] DegradedStats degraded() const noexcept TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    return degraded_;
  }
  void record_reader_stats(const net::PcapReader::Stats& s) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    fold(&DegradedStats::unparseable_frames, s.skipped_unparseable);
    fold(&DegradedStats::oversize_frames, s.skipped_oversize);
    fold(&DegradedStats::truncated_frames, s.skipped_truncated);
  }
  void record_sampler_stats(const capture::ConnectionSampler::Stats& s) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    fold(&DegradedStats::malformed_packets, s.packets_malformed);
    fold(&DegradedStats::overload_evicted, s.flows_evicted_overload);
  }
  void record_queue_stats(const common::BoundedQueueStats& s) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    fold(&DegradedStats::queue_shed_embryonic, s.shed_low_value);
    fold(&DegradedStats::queue_shed_other, s.shed_other);
  }
  /// Report-sink degradation: cumulative counts of spooled reports that
  /// failed replay (quarantined) and of spool-cap evictions — both data
  /// loss an operator must see. Takes plain counters, not the emitter's
  /// Stats struct, so the analysis layer stays below the service layer.
  void record_sink_stats(std::uint64_t spool_replay_failures,
                         std::uint64_t spool_dropped) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    fold(&DegradedStats::spool_replay_failures, spool_replay_failures);
    fold(&DegradedStats::spool_dropped, spool_dropped);
  }
  /// Admission-control shed accounting (cumulative, from the overload
  /// controller's stats). Plain counters for the same layering reason as
  /// record_sink_stats: analysis must not depend on control.
  void record_overload_stats(std::uint64_t rate_limited, std::uint64_t sampled_down,
                             std::uint64_t embryonic_shed,
                             std::uint64_t rejected) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    fold(&DegradedStats::admission_rate_limited, rate_limited);
    fold(&DegradedStats::admission_sampled_down, sampled_down);
    fold(&DegradedStats::admission_embryonic_shed, embryonic_shed);
    fold(&DegradedStats::admission_rejected, rejected);
  }

  /// Evidence-only mode (degradation ladder level kEvidenceOnly and above):
  /// ingest skips app-proto (TLS/HTTP) payload parsing and keeps only the
  /// tamper-signature evidence. Safe to flip from any thread; the worker
  /// reads it per sample.
  void set_evidence_only(bool on) noexcept {
    evidence_only_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool evidence_only() const noexcept {
    return evidence_only_.load(std::memory_order_relaxed);
  }

  /// Largest observation_end_sec ingested so far (1-second granularity,
  /// like every timestamp in the capture path — paper §3.2). The fleet
  /// layer derives a partial's epoch from it. Serialized in snapshot(), so
  /// a resumed PoP re-tags its partials with the same epochs.
  [[nodiscard]] std::int64_t latest_ts_sec() const noexcept { return latest_ts_sec_; }

  /// Configure the longitudinal trends ring (epoch width, history depth,
  /// series cap). Resets the ring; call before ingesting. A later restore()
  /// adopts the checkpoint's epoch length regardless.
  void set_trends_config(obs::EpochRingConfig config) {
    trends_ = obs::EpochRing(config);
  }

  /// Sample the trends catalog (obs::default_series_catalog) into the epoch
  /// ring at the current capture time, and mirror the classification
  /// aggregates into the tamper_class_* registry families. Called by the
  /// service at checkpoint/report boundaries, on the worker thread (the
  /// ring and aggregates are worker-owned). Deterministic: values come from
  /// checkpoint-restored state keyed by capture-derived epochs, so a
  /// resumed run re-records identical points.
  void sample_trends();

  /// The longitudinal epoch ring (see obs/timeseries.h). Worker-owned: read
  /// it from the worker thread or after the run ends, like the aggregators.
  [[nodiscard]] const obs::EpochRing& trends() const noexcept { return trends_; }

  /// Fold another pipeline's aggregate state into this one. All aggregate
  /// members are commutative monoids (see aggregates.h), degraded/scanner
  /// counters add, and latest_ts_sec takes the max — so a fleet merger can
  /// combine per-PoP partials in any order or grouping and serialize to
  /// identical bytes. The delta baselines (last_) are per-process state
  /// and are not merged.
  void merge_from(const Pipeline& other) TAMPER_EXCLUDES(stats_mu_);

  /// The growth of this pipeline's state since `old`: writes into `growth`
  /// (a fresh pipeline) the D with old.merge_from(D) equal to this state,
  /// and returns false, leaving `growth` partly written, when this state
  /// does not extend `old` (a count, a key, an overlap first state, an
  /// evidence sample or latest_ts_sec went back). The trends ring is left
  /// out: its kSum points are cumulative values, not sums, so D's ring is
  /// empty and a merger re-folds rings with refold_trends(). A fleet merger
  /// folds D into its standing merged view instead of re-folding every PoP.
  [[nodiscard]] bool growth_since(const Pipeline& old, Pipeline& growth) const
      TAMPER_EXCLUDES(stats_mu_);

  /// Replace the trends ring with a fresh ring that folds `rings` in the
  /// given order — what merge_from into a fresh pipeline would hold. Ring
  /// sums are floating point, so a merger re-folds them in one fixed order.
  void refold_trends(const std::vector<const obs::EpochRing*>& rings);

  /// Serialize every aggregator plus the degraded/scanner accounting into a
  /// checkpoint payload (see service::Checkpoint for the file envelope).
  void snapshot(common::BinWriter& w) const;
  /// Replace all aggregator state from a payload written by snapshot().
  /// The last-source snapshots reset: a restored process has fresh sources.
  /// Throws common::BinUnderrun on truncated payloads.
  void restore(common::BinReader& r);

 private:
  /// Add the growth of one cumulative source counter to `field` and make
  /// `cur` the new baseline. A counter below its baseline is a fresh
  /// source, so its full value is added.
  void fold(std::uint64_t DegradedStats::* field, std::uint64_t cur) noexcept
      TAMPER_REQUIRES(stats_mu_) {
    std::uint64_t& prev = last_.*field;
    degraded_.*field += cur >= prev ? cur - prev : cur;
    prev = cur;
  }
  const world::World& world_;
  core::SignatureClassifier classifier_;
  SignatureMatrix matrix_;
  AsnAggregator asns_;
  TimeSeries timeseries_;
  VersionProtocolAggregator version_protocol_;
  CategoryAggregator categories_;
  OverlapMatrix overlap_;
  EvidenceCollector evidence_;
  ScannerStats scanner_;
  std::int64_t latest_ts_sec_ = 0;  ///< worker-thread owned, like the aggregators
  // Observability handles (null until set_obs). The counter/histogram
  // pointers are stable registry handles; sampling state is worker-thread
  // only, like the aggregators.
  obs::Registry* obs_metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  const obs::Clock* obs_clock_ = nullptr;
  obs::Counter* obs_samples_ = nullptr;
  obs::Histogram* obs_classify_seconds_ = nullptr;
  obs::Registry::CollectorId obs_collector_ = 0;
  // tamper_class_* mirrors + tamper_timeseries_* bookkeeping, updated only
  // inside sample_trends() on the worker thread (never by collectors: the
  // aggregates and ring are worker-owned).
  obs::Counter* class_connections_c_ = nullptr;
  obs::Counter* class_possibly_c_ = nullptr;
  obs::Counter* class_matched_c_ = nullptr;
  obs::CounterFamily* class_signature_fam_ = nullptr;
  obs::CounterFamily* class_country_conn_fam_ = nullptr;
  obs::CounterFamily* class_country_match_fam_ = nullptr;
  // Cached per-label child handles: CounterFamily::with is a locked lookup,
  // too heavy to repeat for every label on every rollup (the ≤2% sampling
  // overhead contract). Children are stable registry handles; the caches
  // only grow, and reset with the families on set_obs.
  std::array<obs::Counter*, core::kSignatureCount> class_signature_mirror_{};
  std::map<std::string, obs::Counter*> class_country_conn_mirror_;
  std::map<std::string, obs::Counter*> class_country_match_mirror_;
  obs::Counter* ts_points_c_ = nullptr;
  obs::Counter* ts_dropped_c_ = nullptr;
  obs::Gauge* ts_series_g_ = nullptr;
  obs::Gauge* ts_latest_epoch_g_ = nullptr;
  obs::EpochRing trends_;
  mutable common::Mutex stats_mu_;  ///< guards degraded accounting only
  DegradedStats degraded_ TAMPER_GUARDED_BY(stats_mu_);
  /// Last cumulative value each record_* source reported, per cause.
  DegradedStats last_ TAMPER_GUARDED_BY(stats_mu_);
  std::atomic<bool> evidence_only_{false};
};

}  // namespace tamper::analysis
