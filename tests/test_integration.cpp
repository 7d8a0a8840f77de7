// Full-loop integration: traffic -> pcap on disk -> re-ingest through the
// capture loop -> classify, and statistical shape checks on a small global
// scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "capture/replay.h"
#include "capture/sampler.h"
#include "core/classifier.h"
#include "middlebox/catalog.h"
#include "middlebox/middlebox.h"
#include "net/pcap.h"
#include "tcp/session.h"
#include "world/traffic.h"

namespace tamper {
namespace {

using namespace net::tcpflag;

TEST(Integration, TamperedSessionSurvivesPcapRoundTrip) {
  // Simulate a GFW-style tampered session, export the server-side capture
  // to a pcap file, read it back through the production sampler, and verify
  // the classifier reaches the same verdict on the re-ingested data.
  tcp::EndpointConfig client_cfg;
  client_cfg.addr = net::IpAddress::v4(11, 0, 0, 2);
  client_cfg.port = 40000;
  client_cfg.is_client = true;
  client_cfg.isn = 5000;
  common::Rng payload_rng(1);
  appproto::ClientHelloSpec hello;
  hello.sni = "blocked.example";
  client_cfg.request_segments = {appproto::build_client_hello(hello, payload_rng)};

  tcp::EndpointConfig server_cfg;
  server_cfg.addr = net::IpAddress::v4(198, 18, 0, 1);
  server_cfg.port = 443;
  server_cfg.is_client = false;
  server_cfg.isn = 90000;

  tcp::SessionConfig session;
  session.start_time = 1'673'510'000.0;
  middlebox::TriggerSet triggers;
  triggers.add_exact_domain("blocked.example");
  middlebox::Middlebox box(middlebox::catalog::gfw_mixed_burst(), std::move(triggers),
                           session.geometry, common::Rng(2));
  tcp::TcpEndpoint client(client_cfg, common::Rng(3));
  tcp::TcpEndpoint server(server_cfg, common::Rng(4));
  client.set_peer(server_cfg.addr, server_cfg.port);
  server.set_peer(client_cfg.addr, client_cfg.port);
  common::Rng rng(5);
  const tcp::SessionResult result = tcp::simulate_session(client, server, &box, session, rng);
  ASSERT_TRUE(box.triggered());

  // Export the inbound tap to a pcap file (full wire serialization).
  const std::string path = ::testing::TempDir() + "/gfw_session.pcap";
  std::vector<net::Packet> inbound;
  for (const auto& traced : result.server_inbound) inbound.push_back(traced.pkt);
  net::write_pcap_file(path, inbound);

  // Re-ingest through the production capture loop.
  capture::ConnectionSampler::Config sampler_cfg;
  sampler_cfg.sample_one_in = 1;
  capture::ConnectionSampler sampler(sampler_cfg);
  std::ifstream in(path, std::ios::binary);
  net::PcapReader reader(in);
  std::vector<capture::ConnectionSample> samples;
  ASSERT_TRUE(capture::replay(reader, sampler, [&](capture::ConnectionSample&& sample) {
    samples.push_back(std::move(sample));
  }));
  ASSERT_EQ(samples.size(), 1u);

  const auto classification = core::SignatureClassifier{}.classify(samples[0]);
  ASSERT_TRUE(classification.possibly_tampered);
  EXPECT_EQ(classification.signature, core::Signature::kPshRstRstAck);

  // And the DPI side still recovers the blocked domain from the capture.
  const auto* payload = samples[0].first_data_payload();
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(appproto::extract_sni(*payload), "blocked.example");
}

TEST(Integration, CaptureLoopReportsWhatADirectIngestReports) {
  // Every inbound packet of a seeded set of connections, time-sorted into
  // one tap capture, replayed through the capture loop into a pipeline: its
  // Radar JSON must equal a direct ingest of the generator's samples. Only a
  // SYN opens a flow at the tap, so the reference leaves out the flows with
  // no inbound packet or whose first inbound packet is not a SYN.
  const world::World world(
      world::WorldConfig{.domains = {.domain_count = 30'000}, .seed = 0x600d});
  world::TrafficConfig traffic;
  traffic.seed = 0x7a9;
  traffic.keep_raw_inbound = true;
  traffic.window_end = traffic.window_start + 120.0;
  world::TrafficGenerator generator(world, traffic);
  analysis::Pipeline reference(world);
  std::uint64_t reference_flows = 0;
  std::vector<net::Packet> packets;
  generator.generate(4000, [&](world::LabeledConnection&& conn) {
    if (!conn.sample.packets.empty() && conn.sample.packets.front().is_syn()) {
      reference.ingest(conn.sample);
      ++reference_flows;
    }
    for (auto& pkt : conn.raw_inbound) packets.push_back(std::move(pkt));
  });
  std::stable_sort(packets.begin(), packets.end(),
                   [](const auto& a, const auto& b) { return a.timestamp < b.timestamp; });
  std::stringstream pcap(std::ios::in | std::ios::out | std::ios::binary);
  {
    net::PcapWriter writer(pcap);
    for (const auto& pkt : packets) writer.write(pkt);
  }

  net::PcapReader reader(pcap, net::PcapReadMode::kLenient);
  capture::ConnectionSampler::Config config;
  config.sample_one_in = 1;
  capture::ConnectionSampler sampler(config);
  analysis::Pipeline replayed(world);
  const auto eof_end =
      static_cast<std::int64_t>(std::floor(packets.back().timestamp + capture::kEofHorizonSec));
  std::uint64_t flows = 0;
  std::uint64_t closed_idle = 0;
  ASSERT_TRUE(capture::replay(reader, sampler, [&](capture::ConnectionSample&& sample) {
    ++flows;
    if (sample.observation_end_sec < eof_end) ++closed_idle;
    replayed.ingest(sample);
  }));
  replayed.record_reader_stats(reader.stats());
  replayed.record_sampler_stats(sampler.stats());

  EXPECT_EQ(flows, reference_flows);
  EXPECT_GT(closed_idle, flows / 2);  // most flows close mid-capture
  EXPECT_EQ(replayed.degraded().total(), 0u);
  std::ostringstream want, got;
  analysis::write_radar_report(want, reference);
  analysis::write_radar_report(got, replayed);
  EXPECT_EQ(got.str(), want.str());
}

class GlobalScenario : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new world::World(
        world::WorldConfig{.domains = {.domain_count = 30'000}, .seed = 0x600d});
    pipeline_ = new analysis::Pipeline(*world_);
    world::TrafficConfig config;
    config.seed = 0xabc;
    world::TrafficGenerator generator(*world_, config);
    pipeline_->run(generator, 25'000);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete world_;
    pipeline_ = nullptr;
    world_ = nullptr;
  }
  static world::World* world_;
  static analysis::Pipeline* pipeline_;
};

world::World* GlobalScenario::world_ = nullptr;
analysis::Pipeline* GlobalScenario::pipeline_ = nullptr;

TEST_F(GlobalScenario, PossiblyTamperedShareNearPaper) {
  const auto& m = pipeline_->signatures();
  const double share =
      common::percent(m.possibly_tampered(), m.total_connections());
  EXPECT_GT(share, 18.0);  // paper: 25.7%
  EXPECT_LT(share, 35.0);
}

TEST_F(GlobalScenario, SignatureCoverageOfPossiblyTampered) {
  const auto& m = pipeline_->signatures();
  const double coverage = common::percent(m.matched(), m.possibly_tampered());
  EXPECT_GT(coverage, 70.0);  // paper: 86.9%
}

TEST_F(GlobalScenario, EverySignatureObserved) {
  const auto& m = pipeline_->signatures();
  for (core::Signature sig : core::all_signatures())
    EXPECT_GT(m.signature_total(sig), 0u) << core::name(sig);
}

TEST_F(GlobalScenario, CountryOrderingMatchesPaper) {
  const auto& m = pipeline_->signatures();
  auto rate = [&](const char* cc) {
    return common::percent(m.country_matches(cc), m.country_connections(cc));
  };
  // Turkmenistan far above everyone; US/DE near the bottom.
  EXPECT_GT(rate("TM"), 60.0);
  EXPECT_GT(rate("TM"), rate("RU"));
  EXPECT_GT(rate("RU"), rate("US"));
  EXPECT_GT(rate("IR"), rate("DE"));
  EXPECT_GT(rate("CN"), rate("GB"));
}

TEST_F(GlobalScenario, TurkmenistanDominatedByPostAckRst) {
  const auto& m = pipeline_->signatures();
  const std::uint64_t ack_rst = m.count("TM", core::Signature::kAckRst);
  EXPECT_GT(ack_rst, m.count("TM", core::Signature::kPshRst));
  EXPECT_GT(common::percent(ack_rst, m.country_matches("TM")), 30.0);  // small-sample noise floor
}

TEST_F(GlobalScenario, ZeroAckSignatureConcentratedInCnAndKr) {
  const auto& m = pipeline_->signatures();
  const std::uint64_t total = m.signature_total(core::Signature::kPshRstRst0);
  ASSERT_GT(total, 0u);
  const std::uint64_t cn_kr = m.count("CN", core::Signature::kPshRstRst0) +
                              m.count("KR", core::Signature::kPshRstRst0);
  EXPECT_GT(common::percent(cn_kr, total), 60.0);
}

TEST_F(GlobalScenario, EvidenceSeparatesInjectedFromClean) {
  const auto& evidence = pipeline_->evidence();
  const auto& clean = evidence.ipid_cdf(analysis::EvidenceCollector::clean_bucket());
  ASSERT_GT(clean.count(), 200u);
  EXPECT_GT(clean.cdf(1.0), 0.9);  // paper: >95% of clean <= 1
  const auto& injected =
      evidence.ipid_cdf(static_cast<std::size_t>(core::Signature::kPshRst));
  if (injected.count() > 30) {
    EXPECT_LT(injected.cdf(1.0), 0.35);
  }
}

TEST_F(GlobalScenario, KoreaRandomTtlShowsWideSpread) {
  const auto& evidence = pipeline_->evidence();
  const auto& neq =
      evidence.ttl_cdf(static_cast<std::size_t>(core::Signature::kPshRstNeqRst));
  if (neq.count() > 30) {
    EXPECT_GT(neq.quantile(0.9) - neq.quantile(0.1), 30.0);  // randomized TTLs
  }
}

TEST_F(GlobalScenario, CentralizedCountriesHomogeneousAcrossAses) {
  const auto& asns = pipeline_->asns();
  auto range = [&](const char* cc) {
    const auto top = asns.top_ases(cc, 0.8);
    double min = 1e9, max = 0;
    for (const auto& stats : top) {
      if (stats.connections < 50) continue;
      min = std::min(min, stats.match_percent());
      max = std::max(max, stats.match_percent());
    }
    return max - min;
  };
  EXPECT_LT(range("CN"), range("RU") + 15.0);
}

TEST_F(GlobalScenario, ScannerNoiseWithinPaperBounds) {
  const auto& s = pipeline_->scanner_stats();
  EXPECT_EQ(s.no_tcp_options, 0u);  // paper found none post-scrubbing
  EXPECT_LT(common::percent(s.high_ttl, s.connections), 0.3);
  if (s.syn_rst_matches > 100) {
    EXPECT_LT(common::percent(s.syn_rst_zmap, s.syn_rst_matches), 10.0);
  }
}

}  // namespace
}  // namespace tamper
