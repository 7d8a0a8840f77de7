// Shared pieces of the end-to-end benchmark: run options, the metric
// records each workload returns, and helpers every workload uses (set-up
// timing, state sizes, reference comparison, the ingest stage ledger).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "capture/sample.h"
#include "spans.h"
#include "stats.h"
#include "world/world.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required; the run rejects a value <= 0
  bool trace = false;
  std::string tmp_dir;    ///< parent of the run's scratch directory
  std::string trace_out;  ///< Chrome trace JSON path (traced runs; empty: none)
};

/// One reported figure. `samples` is how many measurements it summarizes.
struct Metric {
  double value = 0.0;
  std::uint64_t samples = 0;
};

struct Outcome {
  bool correct = true;
  std::string failure;  ///< first failed correctness check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// by the names in BENCHMARK.json.
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed ahead of the result: the workload-level
  /// figures with units and sample counts, and the ledger tables.
  std::vector<std::string> lines;

  void fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
  void put(const std::string& name, double value, std::uint64_t samples = 1) {
    metrics[name] = Metric{value, samples};
  }
  void say(const std::string& line) { lines.push_back(line); }
};

Outcome run_pcap_batch(const Options& options);
Outcome run_service_stream(const Options& options);
Outcome run_fleet_merge(const Options& options);

/// The paper's worldwide sampled rate: 1 in 10,000 of ~45M requests/s (§3.2).
inline constexpr double kPaperRatePerSec = 4'500.0;

/// The library's default world: part of the system under test, built in
/// set-up. Inputs are generated against a separately built copy.
[[nodiscard]] tamper::world::WorldConfig world_config();

/// Builds the system `reps` times and keeps the last one; `setup` gets the
/// median build time in seconds. Each earlier system is torn down before
/// the next build starts, outside the timed span. `build` returns a
/// std::unique_ptr to whatever the workload runs against.
template <class Build>
auto timed_setup(int reps, Build build, Metric& setup) {
  std::vector<double> times;
  decltype(build()) kept;
  for (int r = 0; r < reps; ++r) {
    kept.reset();
    const std::uint64_t t0 = now_ns();
    kept = build();
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  setup = Metric{median(times), times.size()};
  return kept;
}

/// Resident set size of this process, in MiB.
[[nodiscard]] double rss_mb();

/// Scratch directory for checkpoints and spools, removed on destruction.
class TempDir {
 public:
  TempDir(const std::string& parent, const std::string& tag);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

/// Size of Pipeline::snapshot, in bytes.
[[nodiscard]] std::uint64_t snapshot_bytes(const tamper::analysis::Pipeline& pipeline);

/// Names of the aggregators, in snapshot order, without the trends ring.
[[nodiscard]] const std::vector<std::string>& aggregator_names();

/// Snapshot bytes of one aggregator (names from aggregator_names(), plus
/// "trends").
[[nodiscard]] std::vector<std::uint8_t> aggregator_snapshot(
    const tamper::analysis::Pipeline& pipeline, const std::string& name);

/// First aggregator whose snapshot differs between `got` and `want`, or
/// empty when all match. Names in `skip` are not compared.
[[nodiscard]] std::string first_differing_aggregator(
    const tamper::analysis::Pipeline& got, const tamper::analysis::Pipeline& want,
    const std::vector<std::string>& skip = {});

/// analysis.state_bytes.* for every aggregator and the trends ring.
void put_state_bytes(Outcome& out, const tamper::analysis::Pipeline& pipeline);

/// The per-stage ingest ledger: times each public function Pipeline::ingest
/// calls, stage by stage over `flows`, and sets the stages' self times
/// against `ingest_ns_per_conn`. Fills core.*, world.geo_ns,
/// appproto.dpi_ns, analysis.analyze_ns, analysis.aggregate_ns.* and
/// analysis.ledger_gap_pct, and prints the ledger table.
void stage_ledger(Outcome& out, const tamper::world::World& world,
                  const std::vector<tamper::capture::ConnectionSample>& flows,
                  double ingest_ns_per_conn, SpanLog* spans);

/// "k beyond" for tail percentile `q` of `n` samples, flagged when the tail
/// is unsupported (fewer than kMinBeyond beyond; the figure is then null).
[[nodiscard]] std::string beyond_note(std::size_t n, double q);

/// Formats "name = value unit (detail)" for the human-readable block.
[[nodiscard]] std::string line(const std::string& name, double value, const std::string& unit,
                               const std::string& detail = {});

}  // namespace perfbench
