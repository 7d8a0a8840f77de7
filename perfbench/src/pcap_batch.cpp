// pcap_batch: closed loop, one thread. A time-ordered LINKTYPE_RAW pcap of
// every inbound packet of a seeded set of generated connections is held in
// memory and replayed end to end, over and over:
//
//   PcapReader (lenient) -> ConnectionSampler (1 in 1, drain_idle every
//   capture-second, flush_all at EOF) -> Pipeline::ingest ->
//   write_radar_report
//
// The connections are generated inside a one-minute capture window, so
// about 10k flows are open at once, as at a real tap. Each replay is one
// job: pcap bytes in memory to finished Radar JSON.
#include <algorithm>
#include <cmath>
#include <istream>
#include <memory>
#include <sstream>
#include <streambuf>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "bench.h"
#include "capture/sampler.h"
#include "net/pcap.h"
#include "obs/trace.h"
#include "world/traffic.h"

namespace perfbench {
namespace {

namespace ta = tamper::analysis;

constexpr std::size_t kConnections = 20'000;
constexpr double kCaptureWindowSec = 60.0;
constexpr int kSetupReps = 9;
constexpr double kTailPct = 75.0;

/// Read-only istream over bytes we already hold, without copying them.
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

struct Inputs {
  std::string pcap;
  std::string reference_json;  ///< direct Pipeline::ingest of the generator's samples
  std::uint64_t empty_flows = 0;
  std::uint64_t synless_flows = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  const tamper::world::World world(world_config());
  tamper::world::TrafficConfig traffic;
  traffic.seed = seed;
  traffic.keep_raw_inbound = true;
  traffic.window_end = traffic.window_start + kCaptureWindowSec;
  tamper::world::TrafficGenerator generator(world, traffic);

  Inputs in;
  ta::Pipeline reference(world);
  std::vector<tamper::net::Packet> packets;
  generator.generate(kConnections, [&](tamper::world::LabeledConnection&& conn) {
    // Only a SYN opens a flow at the tap (§3.2), so a flow whose first
    // inbound packet is not one never reaches the pipeline through a
    // capture: one with no inbound packet at all, or one whose SYN was lost
    // upstream and only an injected RST arrived. The reference leaves both
    // out (so degraded_input.empty_samples reads 0 on both sides).
    if (conn.sample.packets.empty())
      ++in.empty_flows;
    else if (!conn.sample.packets.front().is_syn())
      ++in.synless_flows;
    else
      reference.ingest(conn.sample);
    for (auto& pkt : conn.raw_inbound) packets.push_back(std::move(pkt));
  });
  std::stable_sort(packets.begin(), packets.end(),
                   [](const auto& a, const auto& b) { return a.timestamp < b.timestamp; });
  std::ostringstream pcap;
  {
    tamper::net::PcapWriter writer(pcap);
    for (const auto& pkt : packets) writer.write(pkt);
  }
  in.pcap = pcap.str();
  std::ostringstream json;
  ta::write_radar_report(json, reference);
  in.reference_json = json.str();
  return in;
}

/// Span names of the traced replay.
struct Names {
  SpanLog::NameId replay, read, on_packet, drain, ingest, report;
  explicit Names(SpanLog* log)
      : replay(span_name(log, "replay")),
        read(span_name(log, "net.read")),
        on_packet(span_name(log, "capture.on_packet")),
        drain(span_name(log, "capture.drain")),
        ingest(span_name(log, tamper::obs::stage::kIngest)),
        report(span_name(log, "analysis.report")) {}
};

struct Replay {
  double seconds = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t skipped = 0;
  std::uint64_t flows = 0;
  std::uint64_t drain_calls = 0;
  std::uint64_t open_peak = 0;
  std::uint64_t malformed = 0;
  std::uint64_t evicted = 0;
  std::uint64_t ingest_errors = 0;
  bool header_ok = true;
  std::string json;
  std::unique_ptr<ta::Pipeline> pipeline;
};

/// One job: pcap bytes to Radar JSON. `keep` (traced ledger run only)
/// receives a copy of every flow the sampler hands to the pipeline.
Replay replay(const tamper::world::World& world, const std::string& pcap, SpanLog* spans,
              const Names& names, std::vector<tamper::capture::ConnectionSample>* keep) {
  Replay r;
  const std::uint64_t t0 = now_ns();
  SpanLog::Scope job(spans, names.replay);
  MemoryBuf buf(pcap);
  std::istream stream(&buf);
  tamper::net::PcapReader reader(stream, tamper::net::PcapReadMode::kLenient);
  tamper::capture::ConnectionSampler::Config config;
  config.sample_one_in = 1;
  tamper::capture::ConnectionSampler sampler(config);
  r.pipeline = std::make_unique<ta::Pipeline>(world);
  ta::Pipeline& pipeline = *r.pipeline;

  const auto ingest_all = [&](std::vector<tamper::capture::ConnectionSample>&& flows) {
    for (auto& flow : flows) {
      if (keep != nullptr) keep->push_back(flow);
      SpanLog::Scope s(spans, names.ingest);
      pipeline.ingest(flow);
    }
    r.flows += flows.size();
  };

  r.header_ok = reader.ok();
  double last_ts = 0.0;
  std::int64_t second = INT64_MIN;
  while (true) {
    std::optional<tamper::net::Packet> pkt;
    {
      SpanLog::Scope s(spans, names.read);
      pkt = reader.next();
    }
    if (!pkt) break;
    const auto pkt_second = static_cast<std::int64_t>(std::floor(pkt->timestamp));
    if (pkt_second != second) {
      // A new capture-second: close out flows idle past the timeout.
      if (second != INT64_MIN) {
        std::vector<tamper::capture::ConnectionSample> idle;
        {
          SpanLog::Scope s(spans, names.drain);
          idle = sampler.drain_idle(pkt->timestamp);
        }
        ++r.drain_calls;
        ingest_all(std::move(idle));
      }
      second = pkt_second;
    }
    last_ts = std::max(last_ts, pkt->timestamp);
    {
      SpanLog::Scope s(spans, names.on_packet);
      sampler.on_packet(*pkt, pkt->timestamp);
    }
    r.open_peak = std::max<std::uint64_t>(r.open_peak, sampler.open_flows());
  }
  {
    std::vector<tamper::capture::ConnectionSample> rest;
    {
      SpanLog::Scope s(spans, names.drain);
      rest = sampler.flush_all(last_ts + 60.0);
    }
    ++r.drain_calls;
    ingest_all(std::move(rest));
  }
  pipeline.record_reader_stats(reader.stats());
  pipeline.record_sampler_stats(sampler.stats());
  {
    SpanLog::Scope s(spans, names.report);
    std::ostringstream json;
    ta::write_radar_report(json, pipeline);
    r.json = json.str();
  }
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  r.frames = reader.frames_read();
  r.skipped = reader.frames_skipped();
  r.malformed = sampler.stats().packets_malformed;
  r.evicted = sampler.stats().flows_evicted_overload;
  r.ingest_errors = pipeline.degraded().ingest_errors;
  return r;
}

struct Phase {
  std::vector<double> seconds;
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;
  Replay last;
};

/// Replays until `budget_s` has passed, checking every replay's output.
Phase run_phase(Outcome& out, const tamper::world::World& world, const Inputs& in,
                double budget_s, SpanLog* spans) {
  const Names names(spans);
  Phase phase;
  const std::uint64_t start = now_ns();
  do {
    Replay r = replay(world, in.pcap, spans, names, nullptr);
    phase.seconds.push_back(r.seconds);
    phase.frames += r.frames;
    phase.failed += r.skipped + r.malformed + r.evicted + r.ingest_errors;
    if (!r.header_ok) out.fail("pcap_batch: reader refused the capture header");
    if (r.json != in.reference_json)
      out.fail("pcap_batch: Radar JSON differs from a direct ingest of the generator's samples");
    phase.last = std::move(r);
  } while (static_cast<double>(now_ns() - start) * 1e-9 < budget_s);
  return phase;
}

}  // namespace

Outcome run_pcap_batch(const Options& options) {
  Outcome out;
  const Inputs in = make_inputs(options.seed);

  // Each replay builds its own pipeline inside the timed job, so set-up is
  // the world alone.
  Metric setup;
  const auto world_ptr = timed_setup(
      kSetupReps, [] { return std::make_unique<tamper::world::World>(world_config()); }, setup);
  const tamper::world::World& world = *world_ptr;

  const double rss_start = rss_mb();
  const Phase plain = run_phase(out, world, in, options.seconds, nullptr);
  const double rss_growth = rss_mb() - rss_start;
  out.attempted = plain.frames;
  out.failed = plain.failed;

  const double flows = static_cast<double>(plain.last.flows);
  // Throughput is over all replays (flows / mean replay time): the mean
  // moves in proportion to the share of the run spent in a slow stretch of
  // the machine, where the median jumps between the two speeds.
  const double mean_s = mean(plain.seconds);
  const double rate = flows / mean_s;
  const double p50_s = median(plain.seconds);
  const double tail_s = tail_percentile(plain.seconds, kTailPct);
  const std::uint64_t replays = plain.seconds.size();
  const std::uint64_t state = snapshot_bytes(*plain.last.pipeline);
  const double failed_frac =
      plain.frames == 0 ? 0.0 : static_cast<double>(plain.failed) / plain.frames;
  const std::string n = std::to_string(replays) + " replays of " +
                        std::to_string(plain.last.flows) + " flows";
  out.say(line("setup_s", setup.value, "s", std::to_string(setup.samples) + " set-ups"));
  out.say(line("batch_conns_per_s", rate, "1/s", "all replays; " + n));
  out.say(line("replay_p50_ms", p50_s * 1e3, "ms", n));
  out.say(line("replay_p75_ms", tail_s * 1e3, "ms",
               n + "; " + beyond_note(replays, kTailPct)));
  out.say(line("state_bytes", static_cast<double>(state), "bytes", "final Pipeline::snapshot"));
  out.say(line("rss_growth_mb", rss_growth, "MiB", "timed phase"));
  out.say("  generated flows a capture cannot see (left out of the reference): " +
          std::to_string(in.empty_flows) + " with no inbound packet, " +
          std::to_string(in.synless_flows) + " without an inbound SYN");
  out.say(line("ops_failed_frac", failed_frac, "",
               std::to_string(plain.failed) + " of " + std::to_string(plain.frames) + " frames"));

  if (!options.trace) {
    out.put("setup_s", setup.value, setup.samples);
    out.put("throughput_per_s", rate, replays);
    out.put("state_bytes", static_cast<double>(state));
    return out;
  }

  // Traced phase, after the untraced one: a span around every call into a
  // layer, for half as long.
  SpanLog spans(100'000);
  const Names names(&spans);
  const Phase traced = run_phase(out, world, in, options.seconds / 2, &spans);
  const double traced_replays = static_cast<double>(traced.seconds.size());
  const Replay& last = traced.last;
  const auto per_call_ns = [&](SpanLog::NameId id) {
    const auto& t = spans.totals(id);
    return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) / static_cast<double>(t.count);
  };
  const auto per_replay_ms = [&](SpanLog::NameId id) {
    return static_cast<double>(spans.totals(id).total_ns) * 1e-6 / traced_replays;
  };
  const double ingest_ns = per_call_ns(names.ingest);
  out.put("net.read_ns_per_frame", per_call_ns(names.read), spans.totals(names.read).count);
  out.put("net.frames", static_cast<double>(last.frames));
  out.put("net.skipped", static_cast<double>(last.skipped));
  out.put("capture.on_packet_ns_per_packet", per_call_ns(names.on_packet),
          spans.totals(names.on_packet).count);
  out.put("capture.drain_ms_total", per_replay_ms(names.drain), traced.seconds.size());
  out.put("capture.drain_calls", static_cast<double>(last.drain_calls));
  out.put("capture.open_flows_peak", static_cast<double>(last.open_peak));
  out.put("capture.overload_evicted", static_cast<double>(last.evicted));
  out.put("capture.flows_out", static_cast<double>(last.flows));
  out.put("analysis.ingest_ns_per_conn", ingest_ns, spans.totals(names.ingest).count);
  out.put("analysis.report_ms", per_replay_ms(names.report), traced.seconds.size());
  put_state_bytes(out, *last.pipeline);
  out.put("bench.trace_overhead_pct", (mean(traced.seconds) / mean_s - 1.0) * 100.0,
          traced.seconds.size());
  out.put("bench.rss_growth_mb", rss_growth);
  out.put("bench.ops_failed_frac", failed_frac);

  // Stage ledger over the flows of one more replay.
  std::vector<tamper::capture::ConnectionSample> flows_seen;
  flows_seen.reserve(kConnections);
  (void)replay(world, in.pcap, nullptr, Names(nullptr), &flows_seen);
  stage_ledger(out, world, flows_seen, ingest_ns, &spans);
  if (!options.trace_out.empty() && !spans.write_chrome_json(options.trace_out))
    out.say("  (could not write " + options.trace_out + ")");
  out.say("  spans kept " + std::to_string(spans.kept()) + ", dropped " +
          std::to_string(spans.dropped()));
  return out;
}

}  // namespace perfbench
