#include "analysis/evidence.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace tamper::analysis {

namespace {
std::uint32_t abs_delta_u16(std::uint16_t a, std::uint16_t b) noexcept {
  return static_cast<std::uint32_t>(a > b ? a - b : b - a);
}
std::uint32_t abs_delta_u8(std::uint8_t a, std::uint8_t b) noexcept {
  return static_cast<std::uint32_t>(a > b ? a - b : b - a);
}
}  // namespace

EvidenceDeltas evidence_deltas(const capture::ConnectionSample& sample,
                               const core::Classification& classification,
                               const core::ClassifierConfig& config) {
  EvidenceDeltas out;
  const auto ordered = core::order_packets(sample, config);
  if (ordered.size() < 2) return out;
  const bool has_ipid = sample.ip_version == net::IpVersion::kV4;

  std::uint32_t ipid_max = 0, ttl_max = 0;
  bool any = false;
  if (classification.signature && classification.rst_count + classification.rst_ack_count > 0) {
    // Tampered: compare each tear-down packet with the closest preceding
    // non-tear-down packet.
    const capture::ObservedPacket* last_clean = nullptr;
    for (const auto* pkt : ordered) {
      if (pkt->is_rst()) {
        if (last_clean == nullptr) continue;
        ipid_max = std::max(ipid_max, abs_delta_u16(pkt->ip_id, last_clean->ip_id));
        ttl_max = std::max(ttl_max, abs_delta_u8(pkt->ttl, last_clean->ttl));
        any = true;
      } else {
        last_clean = pkt;
      }
    }
  } else {
    // Baseline: consecutive-packet deltas.
    for (std::size_t i = 1; i < ordered.size(); ++i) {
      ipid_max = std::max(ipid_max, abs_delta_u16(ordered[i]->ip_id, ordered[i - 1]->ip_id));
      ttl_max = std::max(ttl_max, abs_delta_u8(ordered[i]->ttl, ordered[i - 1]->ttl));
      any = true;
    }
  }
  if (!any) return out;
  if (has_ipid) out.max_ipid_delta = ipid_max;
  out.max_ttl_delta = ttl_max;
  return out;
}

void EvidenceCollector::add(const capture::ConnectionSample& sample,
                            const ConnectionRecord& record) {
  const auto& c = record.classification;
  std::size_t bucket;
  if (c.signature) {
    bucket = static_cast<std::size_t>(*c.signature);
  } else if (!c.possibly_tampered) {
    bucket = clean_bucket();
  } else {
    return;  // unmatched possibly-tampered: not plotted in Figs. 2-3
  }
  if (ttl_[bucket].count() >= cap_) return;
  const EvidenceDeltas deltas = evidence_deltas(sample, c);
  if (deltas.max_ipid_delta) ipid_[bucket].add(static_cast<double>(*deltas.max_ipid_delta));
  if (deltas.max_ttl_delta) ttl_[bucket].add(static_cast<double>(*deltas.max_ttl_delta));
}

namespace {

void write_cdf(common::BinWriter& w, const common::EmpiricalCdf& cdf) {
  const auto samples = cdf.sorted_samples();
  w.u64(samples.size());
  for (double v : samples) w.f64(v);
}

void read_cdf(common::BinReader& r, common::EmpiricalCdf& cdf) {
  const std::uint64_t n = r.u64();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, 1u << 20)));
  for (std::uint64_t i = 0; i < n; ++i) samples.push_back(r.f64());
  cdf.assign(std::move(samples));
}

}  // namespace

void EvidenceCollector::merge(const EvidenceCollector& other) {
  cap_ = std::max(cap_, other.cap_);
  const auto merge_cdf = [](common::EmpiricalCdf& into, const common::EmpiricalCdf& from) {
    if (from.count() == 0) return;
    std::vector<double> samples = into.sorted_samples();
    const std::vector<double> more = from.sorted_samples();
    samples.insert(samples.end(), more.begin(), more.end());
    into.assign(std::move(samples));
  };
  for (std::size_t b = 0; b < kBuckets; ++b) {
    merge_cdf(ipid_[b], other.ipid_[b]);
    merge_cdf(ttl_[b], other.ttl_[b]);
  }
}

bool EvidenceCollector::growth_since(const EvidenceCollector& old,
                                     EvidenceCollector& growth) const {
  if (cap_ < old.cap_) return false;
  growth.cap_ = cap_;
  // A sorted walk: every old sample must pair with an equal one of ours;
  // ours that pair with none are the growth.
  const auto grow = [](const common::EmpiricalCdf& was, const common::EmpiricalCdf& is,
                       common::EmpiricalCdf& out) {
    if (is.count() < was.count()) return false;
    const std::vector<double> old_samples = was.sorted_samples();
    std::vector<double> extra;
    extra.reserve(is.count() - was.count());
    std::size_t i = 0;
    for (const double v : is.sorted_samples()) {
      if (i < old_samples.size() && old_samples[i] == v) {
        ++i;
      } else if (i < old_samples.size() && old_samples[i] < v) {
        return false;  // old_samples[i] is not among ours
      } else {
        extra.push_back(v);
      }
    }
    if (i != old_samples.size()) return false;
    out.assign(std::move(extra));
    return true;
  };
  for (std::size_t b = 0; b < kBuckets; ++b)
    if (!grow(old.ipid_[b], ipid_[b], growth.ipid_[b]) ||
        !grow(old.ttl_[b], ttl_[b], growth.ttl_[b]))
      return false;
  return true;
}

void EvidenceCollector::snapshot(common::BinWriter& w) const {
  w.u64(cap_);
  for (const auto& cdf : ipid_) write_cdf(w, cdf);
  for (const auto& cdf : ttl_) write_cdf(w, cdf);
}

void EvidenceCollector::restore(common::BinReader& r) {
  cap_ = static_cast<std::size_t>(r.u64());
  for (auto& cdf : ipid_) read_cdf(r, cdf);
  for (auto& cdf : ttl_) read_cdf(r, cdf);
}

}  // namespace tamper::analysis
