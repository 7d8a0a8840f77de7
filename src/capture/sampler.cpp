#include "capture/sampler.h"

#include <cmath>

namespace tamper::capture {

bool ConnectionSampler::should_sample(const FlowKey& key) const noexcept {
  if (config_.sample_one_in <= 1) return true;
  // Hash-based uniform sampling: deterministic per flow, unbiased across
  // flows, independent of arrival order.
  const std::uint64_t h = common::mix64(FlowKeyHash{}(key) ^ config_.hash_salt);
  return h % config_.sample_one_in == 0;
}

bool ConnectionSampler::is_malformed(const net::Packet& pkt) const noexcept {
  if (pkt.tcp.src_port == 0 || pkt.tcp.dst_port == 0) return true;
  // Self-addressed 4-tuple (LAND-style) — no legitimate stack emits this.
  if (pkt.src == pkt.dst && pkt.tcp.src_port == pkt.tcp.dst_port) return true;
  // Deliberately ambiguous flag combinations middleboxes/scanners use to
  // probe DPI behaviour; no meaningful connection state can follow them.
  if (pkt.tcp.has(net::tcpflag::kSyn) &&
      (pkt.tcp.has(net::tcpflag::kFin) || pkt.tcp.has(net::tcpflag::kRst)))
    return true;
  return false;
}

void ConnectionSampler::close(FlowMap::iterator it, std::list<FlowKey>& lru,
                              common::SimTime end, std::vector<ConnectionSample>& out) {
  it->second.sample.observation_end_sec = static_cast<std::int64_t>(std::floor(end));
  out.push_back(std::move(it->second.sample));
  lru.erase(it->second.lru_it);
  flows_.erase(it);
}

void ConnectionSampler::evict_for_overload(common::SimTime now) {
  std::list<FlowKey>& lru = embryonic_lru_.empty() ? established_lru_ : embryonic_lru_;
  close(flows_.find(lru.front()), lru, now, evicted_);
  ++stats_.flows_evicted_overload;
}

ConnectionSampler::FlowMap::iterator ConnectionSampler::idle_front(
    const std::list<FlowKey>& lru, common::SimTime now) {
  if (lru.empty()) return flows_.end();
  const auto it = flows_.find(lru.front());
  return now - it->second.last_seen >= config_.flow_idle_timeout ? it : flows_.end();
}

void ConnectionSampler::on_packet(const net::Packet& pkt, common::SimTime now) {
  ++stats_.packets_seen;
  if (config_.scrub && config_.scrub(pkt)) {
    ++stats_.packets_scrubbed;
    return;
  }
  if (is_malformed(pkt)) {
    ++stats_.packets_malformed;
    return;
  }
  const FlowKey key{pkt.src, pkt.dst, pkt.tcp.src_port, pkt.tcp.dst_port};
  auto it = flows_.find(key);
  if (it == flows_.end()) {
    // Only a SYN opens a flow; anything else without flow state is a
    // mid-connection packet of an unsampled (or evicted) flow.
    if (!pkt.tcp.has(net::tcpflag::kSyn) || pkt.tcp.has(net::tcpflag::kAck)) return;
    ++stats_.connections_seen;
    if (!should_sample(key)) return;
    ++stats_.connections_sampled;
    if (config_.max_flows > 0 && flows_.size() >= config_.max_flows)
      evict_for_overload(now);
    FlowState state;
    state.sample.client_ip = pkt.src;
    state.sample.server_ip = pkt.dst;
    state.sample.client_port = pkt.tcp.src_port;
    state.sample.server_port = pkt.tcp.dst_port;
    state.sample.ip_version = pkt.src.version();
    state.lru_it = embryonic_lru_.insert(embryonic_lru_.end(), key);
    it = flows_.emplace(key, std::move(state)).first;
  } else {
    FlowState& flow = it->second;
    if (flow.embryonic) {
      // Second packet: promote out of the SYN-flood eviction class.
      embryonic_lru_.erase(flow.lru_it);
      flow.embryonic = false;
      flow.lru_it = established_lru_.insert(established_lru_.end(), key);
    } else {
      established_lru_.splice(established_lru_.end(), established_lru_, flow.lru_it);
    }
  }
  FlowState& flow = it->second;
  flow.last_seen = now;
  if (flow.full) return;
  flow.sample.packets.push_back(observe(pkt, config_.keep_payloads));
  if (flow.sample.packets.size() >= config_.max_packets) flow.full = true;
}

std::vector<ConnectionSample> ConnectionSampler::drain_idle(common::SimTime now) {
  std::vector<ConnectionSample> out = std::move(evicted_);
  evicted_.clear();
  // With a monotone `now` each recency list is ordered by last_seen, so its
  // idle flows are a prefix of it: merge the two prefixes, oldest first.
  while (true) {
    const auto embryonic = idle_front(embryonic_lru_, now);
    const auto established = idle_front(established_lru_, now);
    if (embryonic == flows_.end() && established == flows_.end()) break;
    const bool take_embryonic =
        established == flows_.end() ||
        (embryonic != flows_.end() && embryonic->second.last_seen <= established->second.last_seen);
    if (take_embryonic)
      close(embryonic, embryonic_lru_, now, out);
    else
      close(established, established_lru_, now, out);
  }
  return out;
}

std::vector<ConnectionSample> ConnectionSampler::flush_all(common::SimTime observation_end) {
  std::vector<ConnectionSample> out = std::move(evicted_);
  evicted_.clear();
  out.reserve(out.size() + flows_.size());
  for (auto& [key, flow] : flows_) {
    flow.sample.observation_end_sec = static_cast<std::int64_t>(std::floor(observation_end));
    out.push_back(std::move(flow.sample));
  }
  flows_.clear();
  embryonic_lru_.clear();
  established_lru_.clear();
  return out;
}

}  // namespace tamper::capture
