#include <gtest/gtest.h>

#include <sstream>

#include "capture/replay.h"
#include "capture/sampler.h"
#include "net/pcap.h"

namespace tamper::capture {
namespace {

using namespace net::tcpflag;

net::Packet packet(const net::IpAddress& src, std::uint16_t sport, std::uint8_t flags,
                   std::uint32_t seq, double ts, std::uint16_t payload_len = 0) {
  net::Packet pkt = net::make_tcp_packet(src, sport, net::IpAddress::v4(198, 18, 0, 1),
                                         443, flags, seq, 0,
                                         std::vector<std::uint8_t>(payload_len, 'x'));
  pkt.timestamp = ts;
  pkt.ip.ttl = 55;
  pkt.ip.ip_id = 77;
  return pkt;
}

ConnectionSampler::Config sample_everything() {
  ConnectionSampler::Config config;
  config.sample_one_in = 1;
  return config;
}

TEST(Observe, CapturesHeaderFieldsAndQuantizesTime) {
  const net::Packet pkt = packet(net::IpAddress::v4(11, 0, 0, 2), 40000, kPsh | kAck,
                                 123, 1673503999.87, 42);
  const ObservedPacket observed = observe(pkt);
  EXPECT_EQ(observed.ts_sec, 1673503999);  // 1-second granularity
  EXPECT_EQ(observed.flags, kPsh | kAck);
  EXPECT_EQ(observed.seq, 123u);
  EXPECT_EQ(observed.ttl, 55);
  EXPECT_EQ(observed.ip_id, 77);
  EXPECT_EQ(observed.payload_len, 42);
  EXPECT_EQ(observed.payload.size(), 42u);
}

TEST(Observe, CanDropPayloads) {
  const net::Packet pkt =
      packet(net::IpAddress::v4(11, 0, 0, 2), 40000, kPsh | kAck, 1, 5.0, 10);
  const ObservedPacket observed = observe(pkt, /*keep_payload=*/false);
  EXPECT_EQ(observed.payload_len, 10);
  EXPECT_TRUE(observed.payload.empty());
}

TEST(ObservedPacket, FlagPredicates) {
  ObservedPacket p;
  p.flags = kSyn;
  EXPECT_TRUE(p.is_syn());
  p.flags = kSyn | kAck;
  EXPECT_FALSE(p.is_syn());
  p.flags = kRst;
  EXPECT_TRUE(p.is_plain_rst());
  EXPECT_FALSE(p.is_rst_ack());
  p.flags = kRst | kAck;
  EXPECT_TRUE(p.is_rst_ack());
  EXPECT_FALSE(p.is_plain_rst());
  p.flags = kAck;
  EXPECT_TRUE(p.is_pure_ack());
  p.payload_len = 5;
  EXPECT_FALSE(p.is_pure_ack());
  EXPECT_TRUE(p.is_data());
}

TEST(Sampler, FlowOpensOnlyOnSyn) {
  ConnectionSampler sampler(sample_everything());
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kAck, 2, 1.0), 1.0);  // mid-flow packet
  auto samples = sampler.flush_all(10.0);
  EXPECT_TRUE(samples.empty());
  EXPECT_EQ(sampler.stats().connections_seen, 0u);
}

TEST(Sampler, RecordsFirstTenPackets) {
  ConnectionSampler sampler(sample_everything());
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kSyn, 0, 1.0), 1.0);
  for (int i = 0; i < 15; ++i)
    sampler.on_packet(packet(client, 40000, kAck, 1 + i, 1.1 + i * 0.01), 1.1);
  auto samples = sampler.flush_all(50.0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].packets.size(), 10u);
  EXPECT_TRUE(samples[0].packets[0].is_syn());
  EXPECT_EQ(samples[0].observation_end_sec, 50);
  EXPECT_EQ(samples[0].client_port, 40000);
  EXPECT_EQ(samples[0].server_port, 443);
}

TEST(Sampler, SamplingRateIsApproximatelyUniform) {
  ConnectionSampler::Config config;
  config.sample_one_in = 10;
  ConnectionSampler sampler(config);
  common::Rng rng(5);
  const int flows = 40000;
  for (int i = 0; i < flows; ++i) {
    const auto client = net::IpAddress::v4(static_cast<std::uint32_t>(rng.next()));
    sampler.on_packet(packet(client, static_cast<std::uint16_t>(rng.below(60000) + 1024),
                             kSyn, 0, 1.0),
                      1.0);
  }
  EXPECT_EQ(sampler.stats().connections_seen, static_cast<std::uint64_t>(flows));
  EXPECT_NEAR(static_cast<double>(sampler.stats().connections_sampled), flows / 10.0,
              flows / 10.0 * 0.15);
}

TEST(Sampler, SamplingIsDeterministicPerFlow) {
  ConnectionSampler::Config config;
  config.sample_one_in = 7;
  ConnectionSampler a(config), b(config);
  common::Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const auto client = net::IpAddress::v4(static_cast<std::uint32_t>(rng.next()));
    const auto pkt = packet(client, 4242, kSyn, 0, 1.0);
    a.on_packet(pkt, 1.0);
    b.on_packet(pkt, 1.0);
  }
  EXPECT_EQ(a.stats().connections_sampled, b.stats().connections_sampled);
}

TEST(Sampler, ScrubRunsBeforeSampling) {
  ConnectionSampler::Config config = sample_everything();
  config.scrub = [](const net::Packet& pkt) { return pkt.tcp.options.empty(); };
  ConnectionSampler sampler(config);
  auto optionless = packet(net::IpAddress::v4(11, 0, 0, 2), 40000, kSyn, 0, 1.0);
  sampler.on_packet(optionless, 1.0);
  EXPECT_EQ(sampler.stats().packets_scrubbed, 1u);
  EXPECT_EQ(sampler.stats().connections_seen, 0u);

  auto with_options = packet(net::IpAddress::v4(11, 0, 0, 3), 40000, kSyn, 0, 1.0);
  with_options.tcp.options.push_back(net::TcpOption::mss_opt(1460));
  sampler.on_packet(with_options, 1.0);
  EXPECT_EQ(sampler.stats().connections_seen, 1u);
}

TEST(Sampler, IdleFlowsDrainWithEndTimestamp) {
  ConnectionSampler::Config config = sample_everything();
  config.flow_idle_timeout = 5.0;
  ConnectionSampler sampler(config);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 2), 40000, kSyn, 0, 1.0), 1.0);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 3), 40000, kSyn, 0, 4.0), 4.0);
  auto drained = sampler.drain_idle(7.0);  // only the first flow is idle >= 5 s
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].client_ip, net::IpAddress::v4(11, 0, 0, 2));
  EXPECT_EQ(drained[0].observation_end_sec, 7);
  // The drained flow is gone; the other remains for flush.
  auto rest = sampler.flush_all(9.0);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].client_ip, net::IpAddress::v4(11, 0, 0, 3));
}

TEST(Sampler, DistinctFlowsKeptSeparate) {
  ConnectionSampler sampler(sample_everything());
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kSyn, 0, 1.0), 1.0);
  sampler.on_packet(packet(client, 40001, kSyn, 0, 1.0), 1.0);  // different sport
  sampler.on_packet(packet(client, 40000, kAck, 1, 1.1), 1.1);
  auto samples = sampler.flush_all(10.0);
  ASSERT_EQ(samples.size(), 2u);
  std::size_t sizes[2] = {samples[0].packets.size(), samples[1].packets.size()};
  std::sort(std::begin(sizes), std::end(sizes));
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);
}

TEST(Sampler, UnsampledFlowPacketsIgnored) {
  ConnectionSampler::Config config;
  config.sample_one_in = 1'000'000'000;  // effectively never sample
  ConnectionSampler sampler(config);
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kSyn, 0, 1.0), 1.0);
  sampler.on_packet(packet(client, 40000, kAck, 1, 1.1), 1.1);
  EXPECT_EQ(sampler.stats().connections_seen, 1u);
  EXPECT_EQ(sampler.stats().connections_sampled, 0u);
  EXPECT_TRUE(sampler.flush_all(10.0).empty());
}

TEST(Sampler, EvictionExactlyAtIdleTimeout) {
  ConnectionSampler::Config config = sample_everything();
  config.flow_idle_timeout = 5.0;
  ConnectionSampler sampler(config);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 2), 40000, kSyn, 0, 1.0), 1.0);
  // Just under the horizon: idle for 4.999 s, stays.
  EXPECT_TRUE(sampler.drain_idle(5.999).empty());
  // Exactly at the horizon: `now - last_seen >= timeout` evicts.
  auto drained = sampler.drain_idle(6.0);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].observation_end_sec, 6);
  EXPECT_EQ(sampler.open_flows(), 0u);
}

TEST(Sampler, FourTupleReuseAfterEvictionOpensFreshFlow) {
  ConnectionSampler::Config config = sample_everything();
  config.flow_idle_timeout = 5.0;
  ConnectionSampler sampler(config);
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kSyn, 100, 1.0), 1.0);
  sampler.on_packet(packet(client, 40000, kAck, 101, 1.5), 1.5);
  ASSERT_EQ(sampler.drain_idle(40.0).size(), 1u);
  // Same 4-tuple returns: the new SYN opens a brand-new flow rather than
  // resurrecting the evicted one's state.
  sampler.on_packet(packet(client, 40000, kSyn, 900, 41.0), 41.0);
  EXPECT_EQ(sampler.stats().connections_seen, 2u);
  auto samples = sampler.flush_all(50.0);
  ASSERT_EQ(samples.size(), 1u);
  ASSERT_EQ(samples[0].packets.size(), 1u);
  EXPECT_EQ(samples[0].packets[0].seq, 900u);
}

TEST(Sampler, OverloadEvictsOldestEmbryonicFirst) {
  ConnectionSampler::Config config = sample_everything();
  config.max_flows = 4;
  config.flow_idle_timeout = 1e9;
  ConnectionSampler sampler(config);
  const auto established_a = net::IpAddress::v4(11, 0, 0, 2);
  const auto established_b = net::IpAddress::v4(11, 0, 0, 3);
  sampler.on_packet(packet(established_a, 40000, kSyn, 0, 1.0), 1.0);
  sampler.on_packet(packet(established_a, 40000, kAck, 1, 1.1), 1.1);
  sampler.on_packet(packet(established_b, 40000, kSyn, 0, 2.0), 2.0);
  sampler.on_packet(packet(established_b, 40000, kAck, 1, 2.1), 2.1);
  // Two embryonic flows fill the table; the fifth flow forces an eviction.
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 4), 40000, kSyn, 0, 3.0), 3.0);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 5), 40000, kSyn, 0, 4.0), 4.0);
  EXPECT_EQ(sampler.open_flows(), 4u);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 6), 40000, kSyn, 0, 5.0), 5.0);
  EXPECT_EQ(sampler.open_flows(), 4u);
  EXPECT_EQ(sampler.stats().flows_evicted_overload, 1u);
  // The victim was the oldest *embryonic* flow (11.0.0.4), not an
  // established one; it surfaces through drain_idle() despite not being
  // idle, closed out at the eviction time.
  auto drained = sampler.drain_idle(5.5);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].client_ip, net::IpAddress::v4(11, 0, 0, 4));
  EXPECT_EQ(drained[0].observation_end_sec, 5);
  auto rest = sampler.flush_all(10.0);
  ASSERT_EQ(rest.size(), 4u);
  for (const auto& sample : rest) {
    EXPECT_NE(sample.client_ip, net::IpAddress::v4(11, 0, 0, 4));
  }
}

TEST(Sampler, EstablishedFlowsEvictedOnlyWithoutEmbryonicCandidates) {
  ConnectionSampler::Config config = sample_everything();
  config.max_flows = 2;
  config.flow_idle_timeout = 1e9;
  ConnectionSampler sampler(config);
  for (int i = 0; i < 2; ++i) {
    const auto client = net::IpAddress::v4(11, 0, 1, static_cast<std::uint8_t>(i));
    sampler.on_packet(packet(client, 40000, kSyn, 0, 1.0 + i), 1.0 + i);
    sampler.on_packet(packet(client, 40000, kAck, 1, 1.5 + i), 1.5 + i);
  }
  // All tracked flows are established: the LRU established flow goes.
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 2, 1), 40000, kSyn, 0, 9.0), 9.0);
  EXPECT_EQ(sampler.stats().flows_evicted_overload, 1u);
  auto drained = sampler.drain_idle(9.5);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].client_ip, net::IpAddress::v4(11, 0, 1, 0));
}

TEST(Sampler, MalformedPacketsCountedAndDropped) {
  ConnectionSampler sampler(sample_everything());
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  auto port_zero = packet(client, 40000, kSyn, 0, 1.0);
  port_zero.tcp.src_port = 0;
  sampler.on_packet(port_zero, 1.0);
  sampler.on_packet(packet(client, 40000, kSyn | kFin, 0, 1.0), 1.0);
  sampler.on_packet(packet(client, 40000, kSyn | kRst, 0, 1.0), 1.0);
  auto land = packet(client, 443, kSyn, 0, 1.0);
  land.dst = client;  // self-addressed 4-tuple
  sampler.on_packet(land, 1.0);
  EXPECT_EQ(sampler.stats().packets_malformed, 4u);
  EXPECT_EQ(sampler.stats().connections_seen, 0u);
  EXPECT_EQ(sampler.open_flows(), 0u);
}

TEST(Sampler, DrainIdleClosesOldestFirstAcrossBothLists) {
  ConnectionSampler::Config config = sample_everything();
  config.flow_idle_timeout = 5.0;
  ConnectionSampler sampler(config);
  const auto a = net::IpAddress::v4(11, 0, 0, 2);
  const auto b = net::IpAddress::v4(11, 0, 0, 3);
  const auto c = net::IpAddress::v4(11, 0, 0, 4);
  sampler.on_packet(packet(a, 40000, kSyn, 0, 1.0), 1.0);
  sampler.on_packet(packet(a, 40000, kAck, 1, 1.2), 1.2);  // established at 1.2
  sampler.on_packet(packet(b, 40000, kSyn, 0, 1.5), 1.5);  // embryonic at 1.5
  sampler.on_packet(packet(c, 40000, kSyn, 0, 3.0), 3.0);  // embryonic at 3
  const auto drained = sampler.drain_idle(7.0);  // a and b are idle, c is not
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].client_ip, a);
  EXPECT_EQ(drained[1].client_ip, b);
  EXPECT_EQ(sampler.open_flows(), 1u);
}

TEST(ConnectionSample, FirstDataPayloadFindsRequest) {
  ConnectionSample sample;
  ObservedPacket syn;
  syn.flags = kSyn;
  ObservedPacket data;
  data.flags = kPsh | kAck;
  data.payload = {'G', 'E', 'T'};
  data.payload_len = 3;
  sample.packets = {syn, data};
  ASSERT_NE(sample.first_data_payload(), nullptr);
  EXPECT_EQ(sample.first_data_payload()->size(), 3u);

  ConnectionSample no_data;
  no_data.packets = {syn};
  EXPECT_EQ(no_data.first_data_payload(), nullptr);
}

// ---- capture::replay: the pcap -> flow loop --------------------------------

std::string pcap_of(const std::vector<net::Packet>& packets) {
  std::ostringstream out(std::ios::binary);
  net::PcapWriter writer(out);
  for (const auto& pkt : packets) writer.write(pkt);
  return out.str();
}

/// Replays `bytes` through `sampler`; returns the flows in the order they
/// closed.
std::vector<ConnectionSample> replay_bytes(const std::string& bytes, ConnectionSampler& sampler,
                                           const std::function<bool()>& stop = {},
                                           bool* completed = nullptr) {
  std::istringstream in(bytes, std::ios::binary);
  net::PcapReader reader(in);
  std::vector<ConnectionSample> flows;
  const bool done = replay(
      reader, sampler, [&](ConnectionSample&& flow) { flows.push_back(std::move(flow)); }, stop);
  if (completed != nullptr) *completed = done;
  return flows;
}

/// `n` finished connections, one opening every 0.1 s, 4 packets each.
std::vector<net::Packet> sequential_flows(std::size_t n) {
  std::vector<net::Packet> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto client = net::IpAddress::v4(0x0b000000u + static_cast<std::uint32_t>(i));
    const double t = 1000.0 + 0.1 * static_cast<double>(i);
    out.push_back(packet(client, 40000, kSyn, 0, t));
    out.push_back(packet(client, 40000, kAck, 1, t + 0.02));
    out.push_back(packet(client, 40000, kPsh | kAck, 1, t + 0.04, 20));
    out.push_back(packet(client, 40000, kFin | kAck, 21, t + 0.06));
  }
  return out;
}

TEST(Replay, FinishedFlowsCloseWhenIdleNotUnderOverload) {
  // 3000 flows over 300 s, about 300 of them inside any 30 s idle window.
  const std::string bytes = pcap_of(sequential_flows(3000));
  ConnectionSampler::Config config = sample_everything();
  config.max_flows = 1000;

  ConnectionSampler sampler(config);
  const auto flows = replay_bytes(bytes, sampler);
  EXPECT_EQ(flows.size(), 3000u);
  EXPECT_EQ(sampler.stats().flows_evicted_overload, 0u);
  for (const auto& flow : flows) EXPECT_EQ(flow.packets.size(), 4u);

  // Fed without idle drains, the table fills and finished flows are
  // force-closed as overload instead.
  ConnectionSampler undrained(config);
  std::istringstream in(bytes, std::ios::binary);
  net::PcapReader reader(in);
  while (auto pkt = reader.next()) undrained.on_packet(*pkt, pkt->timestamp);
  EXPECT_EQ(undrained.stats().flows_evicted_overload, 2000u);
}

TEST(Replay, FourTupleReusedAfterIdleTimeoutIsTwoFlows) {
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  const std::vector<net::Packet> packets = {
      packet(client, 40000, kSyn, 100, 1.0),   packet(client, 40000, kAck, 101, 1.5),
      packet(client, 40000, kRst, 101, 2.0),   packet(client, 40000, kSyn, 900, 80.0),
      packet(client, 40000, kAck, 901, 80.5),  packet(client, 40000, kPsh | kAck, 901, 81.0, 10),
  };
  ConnectionSampler sampler(sample_everything());
  const auto flows = replay_bytes(pcap_of(packets), sampler);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].packets.size(), 3u);
  EXPECT_EQ(flows[0].packets.front().seq, 100u);
  EXPECT_GE(flows[0].observation_end_sec, 2 + 30);
  EXPECT_EQ(flows[1].packets.size(), 3u);
  EXPECT_EQ(flows[1].packets.front().seq, 900u);
  EXPECT_EQ(flows[1].observation_end_sec, 81 + 60);  // EOF horizon
}

TEST(Replay, DrainsOnEachNewCaptureSecond) {
  ConnectionSampler::Config config = sample_everything();
  config.flow_idle_timeout = 5.0;
  const auto a = net::IpAddress::v4(11, 0, 0, 2);
  const auto b = net::IpAddress::v4(11, 0, 0, 3);
  const std::vector<net::Packet> packets = {
      packet(a, 40000, kSyn, 0, 10.2),  // a goes idle after this
      packet(b, 40000, kSyn, 0, 12.0),  packet(b, 40000, kAck, 1, 14.0),
      packet(b, 40000, kAck, 1, 15.1),  // drain at 15.1: a has been idle 4.9 s
      packet(b, 40000, kAck, 1, 15.9),  // same second: no drain
      packet(b, 40000, kAck, 1, 16.3),  // drain at 16.3: a closes, observed to 16
  };
  ConnectionSampler sampler(config);
  const auto flows = replay_bytes(pcap_of(packets), sampler);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].client_ip, a);
  EXPECT_EQ(flows[0].observation_end_sec, 16);
  EXPECT_EQ(flows[1].client_ip, b);
  EXPECT_EQ(flows[1].packets.size(), 5u);
}

TEST(Replay, FrameFromThePastRefreshesItsFlowAtTheClock) {
  const auto b = net::IpAddress::v4(11, 0, 0, 3);
  const auto c = net::IpAddress::v4(11, 0, 0, 4);
  const std::vector<net::Packet> packets = {
      packet(b, 40000, kSyn, 0, 15.0),
      packet(b, 40000, kAck, 1, 15.2),
      packet(c, 40000, kSyn, 0, 25.0),
      packet(b, 40000, kPsh | kAck, 1, 14.0, 10),  // stamped 11 s in the past
      packet(c, 40000, kAck, 1, 44.0),  // b was last active at clock 25, not 14
      packet(b, 40000, kRst, 11, 45.0),
  };
  ConnectionSampler sampler(sample_everything());
  const auto flows = replay_bytes(pcap_of(packets), sampler);
  ASSERT_EQ(flows.size(), 2u);
  const auto& flow_b = flows[0].client_ip == b ? flows[0] : flows[1];
  ASSERT_EQ(flow_b.packets.size(), 4u);
  EXPECT_EQ(flow_b.packets[2].ts_sec, 14);  // the record keeps its own timestamp
  EXPECT_TRUE(flow_b.packets[3].is_rst());
}

TEST(Replay, StopEndsTheReplayAndFlushesWhatWasRead) {
  const std::string bytes = pcap_of(sequential_flows(10));
  ConnectionSampler sampler(sample_everything());
  int frames = 0;
  bool completed = true;
  const auto flows = replay_bytes(bytes, sampler, [&] { return ++frames > 6; }, &completed);
  EXPECT_FALSE(completed);
  ASSERT_EQ(flows.size(), 2u);  // frames 0-5: one whole flow, half of the next
  EXPECT_EQ(flows[0].packets.size() + flows[1].packets.size(), 6u);
  EXPECT_EQ(sampler.open_flows(), 0u);
}

}  // namespace
}  // namespace tamper::capture
