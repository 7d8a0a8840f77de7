// service_stream: open loop at a fixed 4,500 samples/s, the paper's
// worldwide sampled rate (1 in 10,000 of ~45M requests/s, §3.2), into one
// SupervisedService configured as `tamperscope watch` runs in production:
// a checkpoint every 5,000 samples, a periodic report at the same cadence
// into an in-memory sink, overload control on with its defaults, and
// checkpoint and spool files in a scratch directory the run removes.
//
// Each sample is timed from when it was due, not when it was sent;
// completion is read from ingested(), which counts in FIFO order. Threads:
// the sending thread, the service's worker and its watchdog.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "bench.h"
#include "obs/anomaly.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/checkpoint.h"
#include "service/sink.h"
#include "service/supervisor.h"
#include "world/traffic.h"

namespace perfbench {
namespace {

namespace ta = tamper::analysis;
namespace ts = tamper::service;
using Samples = std::vector<tamper::capture::ConnectionSample>;

constexpr std::uint64_t kBoundaryEvery = 5'000;  // watch's checkpoint cadence
constexpr int kSetupReps = 9;
constexpr double kTailPct = 99.0;
constexpr std::uint64_t kDrainTimeoutNs = 60'000'000'000;

/// CPU seconds used by every thread of the process but the calling one:
/// called from the sending thread, that is the service's worker and watchdog.
double others_cpu_s() {
  const auto seconds = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  };
  rusage self{};
  rusage thread{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_THREAD, &thread);
  return seconds(self) - seconds(thread);
}

ts::ServiceConfig service_config(const std::string& checkpoint_path) {
  ts::ServiceConfig config;
  config.checkpoint_every_samples = kBoundaryEvery;
  config.report_every_samples = kBoundaryEvery;
  config.checkpoint_path = checkpoint_path;
  config.overload.enabled = true;
  return config;
}

/// One service instance with its world, sink and emitter.
struct System {
  System(const std::filesystem::path& dir, int id)
      : emitter(sink, ts::RetryPolicy{}, (dir / ("spool-" + std::to_string(id))).string(),
                0x5e7u + static_cast<std::uint64_t>(id)),
        service(world,
                service_config((dir / ("checkpoint-" + std::to_string(id) + ".bin")).string()),
                &emitter) {
    if (!service.start(ts::SupervisedService::Resume::kFresh))
      throw std::runtime_error("service refused to start: " + service.error());
  }
  tamper::world::World world{world_config()};
  ts::MemorySink sink;
  ts::ReportEmitter emitter;
  ts::SupervisedService service;
};

struct Pass {
  std::vector<double> latencies_us;
  std::vector<std::size_t> accepted;  ///< input indices the service admitted
  std::uint64_t refused = 0;
  std::uint64_t backlog_peak = 0;
  double late_ms = 0.0;
  double run_s = 0.0;
  double service_cpu_s = 0.0;  ///< worker + watchdog CPU while streaming
  ts::RunSummary summary;
};

/// Offers `copies` (the inputs, in order) on the open-loop schedule and
/// waits for the last admitted one to be ingested. With `spans`, each
/// submit is a span.
Pass offer(ts::SupervisedService& service, Samples copies, SpanLog* spans) {
  const SpanLog::NameId submit_span = span_name(spans, "service.submit");
  const std::size_t count = copies.size();
  Pass pass;
  pass.accepted.reserve(count);
  const double cpu0 = others_cpu_s();
  const std::uint64_t start = now_ns() + 1'000'000;
  OpenLoop loop(start, kPaperRatePerSec);
  const auto poll = [&] {
    const std::uint64_t done = service.ingested();
    loop.completed(done, now_ns());
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t due = loop.due_ns(i);
    while (now_ns() < due) poll();
    const std::uint64_t sent = now_ns();
    bool ok = false;
    {
      SpanLog::Scope s(spans, submit_span);
      ok = service.submit(std::move(copies[i]));
    }
    loop.sent(i, sent, ok);
    if (ok) pass.accepted.push_back(i);
    const std::uint64_t ingested = service.ingested();
    pass.backlog_peak = std::max<std::uint64_t>(
        pass.backlog_peak, loop.accepted() > ingested ? loop.accepted() - ingested : 0);
    poll();
  }
  while (loop.done() < loop.accepted()) {
    poll();
    const auto stream_ns = static_cast<std::uint64_t>(count / kPaperRatePerSec * 1e9);
    if (now_ns() - start > kDrainTimeoutNs + stream_ns)
      throw std::runtime_error("service did not drain its queue");
  }
  pass.run_s = static_cast<double>(now_ns() - start) * 1e-9;
  pass.service_cpu_s = others_cpu_s() - cpu0;
  pass.latencies_us = loop.latencies_us();
  pass.refused = loop.refused();
  pass.late_ms = loop.max_late_ms();
  pass.summary = service.stop();
  return pass;
}

/// The service's aggregates must equal a direct ingest of what it admitted.
void check(Outcome& out, const ts::SupervisedService& service, const Pass& pass,
           const Samples& inputs) {
  const tamper::world::World world(world_config());
  ta::Pipeline reference(world);
  for (std::size_t i : pass.accepted) reference.ingest(inputs[i]);
  const std::string diff = first_differing_aggregator(service.pipeline(), reference);
  if (!diff.empty())
    out.fail("service_stream: aggregator '" + diff + "' differs from a direct ingest");
  if (pass.summary.failed) out.fail("service_stream: service failed: " + pass.summary.failure);
  if (pass.summary.worker_crashes != 0) out.fail("service_stream: worker crashed");
}

std::uint64_t failures(const ts::SupervisedService& service, const Pass& pass) {
  return pass.refused + pass.summary.checkpoint_failures +
         service.pipeline().degraded().ingest_errors;
}

/// Replays the admitted samples into a benchmark-owned pipeline and times the
/// work the worker does at each boundary, in the worker's order:
/// trends + checkpoint, then trends + anomaly rescan + report render. The
/// summed boundary time is set against the pass's service CPU time.
void boundary_ledger(Outcome& out, const Samples& inputs, const Pass& pass,
                     const std::filesystem::path& dir, SpanLog& spans) {
  namespace stage = tamper::obs::stage;
  const tamper::world::World world(world_config());
  tamper::obs::Registry registry;
  ta::Pipeline pipeline(world);
  pipeline.set_trends_config(ts::ServiceConfig{}.trends);
  pipeline.set_obs(&registry);
  tamper::obs::AnomalyWatchdog watchdog;
  const SpanLog::NameId ingest_span = spans.name(stage::kIngest);
  const SpanLog::NameId boundary_span = spans.name("service.boundary");
  const SpanLog::NameId trends_span = spans.name("obs.sample_trends");
  const SpanLog::NameId checkpoint_span = spans.name(stage::kCheckpoint);
  const SpanLog::NameId emit_span = spans.name(stage::kEmit);
  const std::string path = (dir / "ledger-checkpoint.bin").string();

  std::vector<double> trends_ms, checkpoint_ms, emit_ms, render_ms, boundary_ms;
  Samples flows;
  flows.reserve(pass.accepted.size());
  std::uint64_t n = 0;
  for (std::size_t i : pass.accepted) {
    {
      SpanLog::Scope s(&spans, ingest_span);
      pipeline.ingest(inputs[i]);
    }
    flows.push_back(inputs[i]);
    if (++n % kBoundaryEvery != 0) continue;
    SpanLog::Scope boundary(&spans, boundary_span);
    const std::uint64_t b0 = now_ns();
    std::uint64_t t = now_ns();
    const auto lap = [&t] {
      const std::uint64_t now = now_ns();
      const double ms = static_cast<double>(now - t) * 1e-6;
      t = now;
      return ms;
    };
    {
      SpanLog::Scope s(&spans, trends_span);
      pipeline.sample_trends();
    }
    trends_ms.push_back(lap());
    {
      SpanLog::Scope s(&spans, checkpoint_span);
      const std::string err = ts::save_checkpoint(path, pipeline, {n, n / kBoundaryEvery});
      if (!err.empty()) out.fail("service_stream: ledger checkpoint failed: " + err);
    }
    checkpoint_ms.push_back(lap());
    {
      SpanLog::Scope s(&spans, trends_span);
      pipeline.sample_trends();
    }
    trends_ms.push_back(lap());
    {
      SpanLog::Scope s(&spans, emit_span);
      watchdog.rescan(pipeline.trends(), tamper::obs::default_series_catalog(),
                      tamper::obs::epochs_where_rising(pipeline.trends(), "degraded"));
      const std::uint64_t r0 = now_ns();
      ta::ReportOptions options;
      options.trend_anomalies = &watchdog.last().events;
      std::ostringstream json;
      ta::write_radar_report(json, pipeline, options);
      render_ms.push_back(static_cast<double>(now_ns() - r0) * 1e-6);
    }
    emit_ms.push_back(lap());
    boundary_ms.push_back(static_cast<double>(now_ns() - b0) * 1e-6);
  }
  double boundary_sum = 0.0;
  for (double b : boundary_ms) boundary_sum += b;
  const auto& ingest = spans.totals(ingest_span);
  const double ingest_ns =
      ingest.count == 0 ? 0.0 : static_cast<double>(ingest.total_ns) / ingest.count;
  out.put("analysis.ingest_ns_per_conn", ingest_ns, ingest.count);
  out.put("obs.sample_trends_ms", mean(trends_ms), trends_ms.size());
  out.put("service.checkpoint_ms", mean(checkpoint_ms), checkpoint_ms.size());
  out.put("service.emit_ms", mean(emit_ms), emit_ms.size());
  out.put("analysis.report_ms", mean(render_ms), render_ms.size());
  out.put("service.boundary_ms", mean(boundary_ms), boundary_ms.size());
  out.put("service.stall_share", pass.run_s > 0 ? boundary_sum * 1e-3 / pass.run_s : 0.0,
          boundary_ms.size());
  const double cpu_ms = pass.service_cpu_s * 1e3;
  out.put("service.boundary_cpu_share", cpu_ms > 0 ? boundary_sum / cpu_ms : 0.0,
          boundary_ms.size());

  out.say("  boundary ledger: mean per boundary vs service.boundary_ms (" +
          std::to_string(boundary_ms.size()) + " boundaries every " +
          std::to_string(kBoundaryEvery) + " samples)");
  const double whole = mean(boundary_ms);
  const auto row = [&](const std::string& name, double ms) {
    std::ostringstream s;
    s.setf(std::ios::fixed);
    s.precision(3);
    s << "    " << name;
    for (std::size_t pad = name.size(); pad < 30; ++pad) s << ' ';
    s << ms << " ms  " << (whole > 0 ? ms / whole * 100.0 : 0.0) << " %";
    out.say(s.str());
  };
  row("boundary", whole);
  row("  trends (obs, x2)", mean(trends_ms) * 2);
  row("  checkpoint (service)", mean(checkpoint_ms));
  row("  emit (service)", mean(emit_ms));
  row("    of which render (analysis)", mean(render_ms));
  const double per_sample_us = cpu_ms * 1e3 / static_cast<double>(pass.accepted.size());
  const double boundary_us = boundary_sum * 1e3 / static_cast<double>(pass.accepted.size());
  out.say(line("  service CPU per sample", per_sample_us, "us",
               "worker + watchdog, traced stream"));
  out.say(line("    of which boundary work", boundary_us, "us",
               std::to_string(cpu_ms > 0 ? boundary_sum / cpu_ms * 100.0 : 0.0) +
                   " %; the rest is ingest, wake-ups, hand-off and the watchdog"));
  stage_ledger(out, world, flows, ingest_ns, &spans);
}

}  // namespace

Outcome run_service_stream(const Options& options) {
  Outcome out;
  // One stream of `seconds` on one service. A traced run first streams
  // untraced, as the untraced run does, then streams the same inputs again
  // traced on a fresh service.
  const auto per_pass = static_cast<std::size_t>(std::llround(kPaperRatePerSec * options.seconds));
  Samples inputs;
  {
    const tamper::world::World world(world_config());
    tamper::world::TrafficConfig traffic;  // the default two-week window
    traffic.seed = options.seed;
    tamper::world::TrafficGenerator generator(world, traffic);
    inputs.reserve(per_pass);
    generator.generate(per_pass, [&](tamper::world::LabeledConnection&& conn) {
      inputs.push_back(std::move(conn.sample));
    });
  }
  const TempDir dir(options.tmp_dir, "service_stream");

  int id = 0;
  Metric setup;
  auto system = timed_setup(
      kSetupReps, [&] { return std::make_unique<System>(dir.path(), id++); }, setup);

  Samples copies = inputs;
  const double rss_start = rss_mb();
  const Pass pass = offer(system->service, std::move(copies), nullptr);
  const double rss_growth = rss_mb() - rss_start;
  check(out, system->service, pass, inputs);
  out.attempted = per_pass;
  out.failed = failures(system->service, pass);
  const std::uint64_t n = pass.latencies_us.size();
  const double p50 = median(pass.latencies_us);
  const double p99 = tail_percentile(pass.latencies_us, kTailPct);
  const double capacity = static_cast<double>(pass.accepted.size()) / pass.service_cpu_s;
  const std::uint64_t state = snapshot_bytes(system->service.pipeline());
  const std::string samples = std::to_string(n) + " samples at " +
                              std::to_string(static_cast<int>(kPaperRatePerSec)) + "/s";
  out.say(line("setup_s", setup.value, "s", std::to_string(setup.samples) + " set-ups"));
  out.say(line("stream_capacity_per_cpu_s", capacity, "1/s",
               "samples per second of worker+watchdog CPU (" +
                   std::to_string(pass.service_cpu_s) + " s); " + samples));
  out.say(line("stream_latency_p50_us", p50, "us", samples));
  out.say(line("stream_latency_p99_us", p99, "us",
               samples + "; " + beyond_note(n, kTailPct)));
  out.say(line("state_bytes", static_cast<double>(state), "bytes", "final Pipeline::snapshot"));
  out.say(line("rss_growth_mb", rss_growth, "MiB", "timed stream"));
  out.say(line("ops_failed_frac", static_cast<double>(out.failed) / out.attempted, "",
               std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
                   " samples"));
  out.say(line("generator_late_ms", pass.late_ms, "ms", "open-loop sender, max"));
  out.say(line("backlog_peak", static_cast<double>(pass.backlog_peak), "samples"));

  if (!options.trace) {
    out.put("setup_s", setup.value, setup.samples);
    out.put("throughput_per_s", capacity, n);
    out.put("state_bytes", static_cast<double>(state));
    return out;
  }

  // Traced pass on a fresh service over the same inputs.
  system.reset();
  System traced_system(dir.path(), id++);
  SpanLog spans(100'000);
  const Pass traced = offer(traced_system.service, inputs, &spans);
  check(out, traced_system.service, traced, inputs);
  out.attempted += per_pass;
  out.failed += failures(traced_system.service, traced);
  const auto& submit = spans.totals(spans.name("service.submit"));
  const tamper::control::OverloadStats overload = traced.summary.overload;
  const double traced_capacity =
      static_cast<double>(traced.accepted.size()) / traced.service_cpu_s;
  out.put("service.latency_p50_us", p50, n);
  out.put("service.latency_p99_us", p99, n);
  out.put("service.submit_ns",
          submit.count == 0 ? 0.0 : static_cast<double>(submit.total_ns) / submit.count,
          submit.count);
  out.put("service.backlog_peak", static_cast<double>(traced.backlog_peak));
  out.put("control.refused", static_cast<double>(overload.shed_total()));
  out.put("control.peak_level", static_cast<double>(overload.peak_level));
  out.put("bench.generator_late_ms", traced.late_ms);
  // Service CPU per sample, traced against untraced.
  out.put("bench.trace_overhead_pct", (capacity / traced_capacity - 1.0) * 100.0,
          traced.accepted.size());
  out.put("bench.rss_growth_mb", rss_growth);
  out.put("bench.ops_failed_frac", static_cast<double>(out.failed) / out.attempted);
  put_state_bytes(out, traced_system.service.pipeline());
  boundary_ledger(out, inputs, traced, dir.path(), spans);
  if (!options.trace_out.empty() && !spans.write_chrome_json(options.trace_out))
    out.say("  (could not write " + options.trace_out + ")");
  return out;
}

}  // namespace perfbench
