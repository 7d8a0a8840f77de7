// Central straggler-tolerant merger: the receiving end of the fleet.
//
// Each PoP emits cumulative epoch-tagged partials (fleet/partial.h) through
// its ReportEmitter; the merger is the Sink they deliver into. It keeps the
// newest partial per PoP and answers three questions, all as pure functions
// of the current partial set (never of arrival order, so merged output is
// byte-identical whenever the surviving coverage set is identical):
//
//   * merged_pipeline()     — the fold of the partials into one Pipeline
//                             (every aggregator is a commutative monoid);
//   * coverage()            — per-epoch pops_reporting/pops_expected with an
//                             epoch watermark (max_epoch - grace_epochs):
//                             an epoch past the watermark with missing PoPs
//                             is explicitly degraded, never silently wrong;
//   * pop status            — live / lagging (behind the watermark) / dead
//                             (no partial for heartbeat_timeout_epochs) /
//                             silent (never reported).
//
// The merged view is standing: next to the per-PoP pipelines the merger
// keeps one merged Pipeline, and per PoP the state that view last folded
// in. Deliveries only decode and install each PoP's newest state; folding
// waits for a reader. merged_report(), merged_state_image(),
// timeseries_dump(), fleet_trends() and merged_pipeline() (a copy) first
// bring the view up to date: for every PoP whose state changed since the
// last read, the merger computes its growth (Pipeline::growth_since: the D
// with folded ⊕ D == newest, over however many partials arrived in
// between) and folds only D into the view. By the monoid laws the view
// stays byte-identical to a fresh fold of the current partial set. The
// trends rings are not a growth (their kSum points are floating point), so
// such a read re-folds the per-PoP rings in ascending PoP id, as a fresh
// fold does. A state that does not extend the one folded before it — a PoP
// restarted from an older checkpoint, hand-built state — refuses growth,
// and the reader rebuilds the view by a fresh fold of every PoP. Nothing
// selects the rebuild: it is the fallback, counted in
// tamper_fleet_rebuilds_total.
//
// Locking: mu_ guards the partial set and the counters and is held only
// for bookkeeping, never for a decode, a fold or a render. view_mu_
// serializes readers over the standing view; a reader takes the partial
// set's snapshot under mu_ (view_mu_, then mu_) and folds and renders with
// mu_ released, so deliveries never wait for a report. Each PoP's state is
// immutable once installed, which lets a reader keep it past the lock.
//
// Idempotence: a partial is identified by (pop, epoch, sequence). Exact
// replays are duplicates; older sequences are stale (superseded by newer
// cumulative state, e.g. a spool replay arriving after a fresher partial);
// both are dropped and counted. Corrupt partials are counted rejected and
// acknowledged — re-delivering bad bytes forever would wedge the emitter's
// spool, and the counter is the operator's signal.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "common/ids.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "control/overload.h"
#include "fleet/partial.h"
#include "obs/anomaly.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "service/sink.h"
#include "world/world.h"

namespace tamper::fleet {

struct MergerConfig {
  std::uint32_t pops_expected = 3;
  /// Epochs behind max_epoch the watermark sits: stragglers within the
  /// grace window are simply not-yet-late.
  std::uint64_t grace_epochs = 1;
  /// A PoP whose newest partial is this many epochs behind max_epoch is
  /// declared dead (its anycast prefixes have presumably failed over).
  std::uint64_t heartbeat_timeout_epochs = 3;
  std::uint64_t epoch_length_sec = 3600;
  /// Bounded-skew guard: a PoP reporting an epoch further than
  /// max_skew_sec (rounded up to whole epochs) + grace from the fleet
  /// median is counted in skew_detected (metrics only — detection depends
  /// on arrival order, so it never feeds the merged report).
  std::int64_t max_skew_sec = 3;
  /// How many closed epochs the coverage block enumerates.
  std::uint64_t coverage_window_epochs = 8;
  /// Watchdog tuning for the fleet-level anomaly scan run over the merged
  /// trends ring (timeseries_dump / merged_report).
  obs::AnomalyConfig anomaly{};
};

class Merger final : public service::Sink {
 public:
  Merger(const world::World& world, MergerConfig config);
  ~Merger() override;

  /// Sink entry point for PoP emitters (thread-safe; PoPs deliver
  /// concurrently). Returns false only for transport-shaped refusals the
  /// emitter should retry; corrupt payloads are acknowledged + counted.
  bool deliver(const std::string& payload) override;
  [[nodiscard]] std::string describe() const override { return "fleet-merger"; }

  struct Stats {
    std::uint64_t received = 0;       ///< deliver() calls
    std::uint64_t accepted = 0;       ///< partials merged into the state
    std::uint64_t duplicates = 0;     ///< exact (pop, epoch, sequence) replays
    std::uint64_t stale = 0;          ///< older sequence than current state
    std::uint64_t late = 0;           ///< merged, but behind the watermark
    std::uint64_t rejected = 0;       ///< corrupt / unparseable partials
    std::uint64_t skew_detected = 0;  ///< bounded-skew guard trips
    std::uint64_t rebuilds = 0;       ///< standing view re-folded (growth refused)
    std::uint64_t partial_bytes = 0;  ///< bytes of every partial received
  };
  [[nodiscard]] Stats stats() const TAMPER_EXCLUDES(mu_);

  /// Order-invariant coverage snapshot (see analysis::FleetCoverage).
  [[nodiscard]] analysis::FleetCoverage coverage() const TAMPER_EXCLUDES(mu_);

  /// A copy of the standing merged view: the fold of the current partials
  /// (equal, by the monoid laws, to folding them in any order).
  [[nodiscard]] std::unique_ptr<analysis::Pipeline> merged_pipeline() const
      TAMPER_EXCLUDES(view_mu_, mu_);

  /// Canonical byte image of the merged aggregate state (a checkpoint
  /// encoding with zeroed meta) — what the chaos campaigns byte-compare.
  [[nodiscard]] std::vector<std::uint8_t> merged_state_image() const
      TAMPER_EXCLUDES(view_mu_, mu_);

  /// Merged Radar JSON with the fleet coverage section and a trends block
  /// annotated with per-epoch coverage (so a degraded epoch is never read
  /// as a real rate drop) and the fleet-level anomaly scan.
  [[nodiscard]] std::string merged_report(analysis::ReportOptions options = {}) const
      TAMPER_EXCLUDES(view_mu_, mu_);

  /// Standalone `tamper-timeseries/1` JSON: a "fleet" scope (the merged
  /// trends ring, coverage notes, and the anomaly scan — coverage-degraded
  /// epochs are suppressed, not scored) plus one "pop:<id>" scope per
  /// reporting PoP. Pure function of the current partial set.
  [[nodiscard]] std::string timeseries_dump(bool pretty = true) const
      TAMPER_EXCLUDES(view_mu_, mu_);

  /// The fleet-scope trends view shared by merged_report, timeseries_dump
  /// and `tamperscope top`: coverage notes for the closed-epoch window plus
  /// the anomaly scan over the merged ring, with degraded epochs = coverage
  /// degradation ∪ epochs where the merged degraded-input series rose.
  struct FleetTrends {
    std::vector<obs::EpochCoverageNote> epochs;
    obs::AnomalyScan scan;
  };
  /// Convenience form over the standing view and the current coverage
  /// (callers that already hold both use the two-argument overload).
  [[nodiscard]] FleetTrends fleet_trends() const TAMPER_EXCLUDES(view_mu_, mu_);
  [[nodiscard]] FleetTrends fleet_trends(
      const analysis::Pipeline& merged,
      const analysis::FleetCoverage& coverage) const;

  /// Register tamper_fleet_* metrics. The registry must outlive the merger.
  void set_obs(obs::Registry* metrics);

 private:
  /// Each PoP's newest state. Never changed once installed, so a reader
  /// may keep one past the lock.
  using PopStates = std::map<common::PopId, std::shared_ptr<const analysis::Pipeline>>;

  struct PopEntry {
    common::EpochId epoch{};
    std::uint64_t sequence = 0;
    control::OverloadState overload;  ///< from the newest partial's header
    std::shared_ptr<const analysis::Pipeline> pipeline;
  };

  /// What a reader renders: the partial set and its coverage, taken
  /// together under mu_.
  struct Snapshot {
    PopStates states;
    analysis::FleetCoverage coverage;
  };

  [[nodiscard]] std::uint64_t max_epoch_locked() const TAMPER_REQUIRES(mu_);
  [[nodiscard]] std::uint64_t watermark_locked() const TAMPER_REQUIRES(mu_);
  [[nodiscard]] analysis::FleetCoverage coverage_locked() const TAMPER_REQUIRES(mu_);
  /// True, counted as a duplicate or stale, when `h` is not newer than the
  /// PoP's current partial.
  bool superseded_locked(const PartialHeader& h) TAMPER_REQUIRES(mu_);
  /// Snapshot the partial set and bring the standing view up to it: fold
  /// in each changed PoP's growth since the state the view holds for it,
  /// or rebuild the view when one has none.
  Snapshot refresh_view() const TAMPER_REQUIRES(view_mu_) TAMPER_EXCLUDES(mu_);

  const world::World& world_;
  MergerConfig config_;
  /// Readers of the standing view; taken before mu_.
  mutable common::Mutex view_mu_;
  /// The partial set and the counters; held only for bookkeeping.
  mutable common::Mutex mu_;
  std::map<common::PopId, PopEntry> pops_ TAMPER_GUARDED_BY(mu_);
  /// Mutable: a reader that rebuilds the view counts it.
  mutable Stats stats_ TAMPER_GUARDED_BY(mu_);
  /// The standing merged view (the fold of folded_), and per PoP the state
  /// it holds. A cache behind the const readers, hence mutable.
  mutable std::unique_ptr<analysis::Pipeline> standing_ TAMPER_GUARDED_BY(view_mu_);
  mutable PopStates folded_ TAMPER_GUARDED_BY(view_mu_);
  obs::Histogram* fold_seconds_ TAMPER_GUARDED_BY(view_mu_) = nullptr;
  obs::Registry* metrics_ = nullptr;
  obs::Registry::CollectorId collector_ = 0;
};

}  // namespace tamper::fleet
