// Checkpoint serialization writes every aggregate in a canonical order, so
// a snapshot is a pure function of the counts: save -> restore -> save is
// byte-identical (tests/test_service.cpp pins the bytes). The order comes
// from the layouts, in linear passes with no per-key lookup and no string
// copies:
//   * SignatureMatrix, AsnAggregator, TimeSeries and
//     VersionProtocolAggregator are ordered maps, written as they iterate.
//   * OverlapMatrix collects the (key, state) pairs of its flat table and
//     radix-sorts them by key.
//   * CategoryAggregator interns each domain and country once, keeps one
//     entry per (country, domain) with both counts, and sorts each
//     country's entries by the integer rank of the domain name. The name
//     order is extended only at snapshot time, by merging in the names
//     interned since the last snapshot.
#include "analysis/aggregates.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "common/rng.h"

namespace tamper::analysis {

namespace {

/// LSD radix sort of (key, value) pairs by key: eight byte-wide counting
/// passes, each a sequential read and a scatter into 256 runs.
void radix_sort_by_key(std::vector<std::pair<std::uint64_t, std::uint64_t>>& v) {
  std::array<std::array<std::size_t, 256>, 8> offsets{};
  for (const auto& [key, value] : v)
    for (std::size_t d = 0; d < 8; ++d) ++offsets[d][(key >> (8 * d)) & 0xff];
  for (auto& counts : offsets) {
    std::size_t sum = 0;
    for (std::size_t& c : counts) sum += std::exchange(c, sum);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out(v.size());
  for (std::size_t d = 0; d < 8; ++d) {
    for (const auto& pair : v) out[offsets[d][(pair.first >> (8 * d)) & 0xff]++] = pair;
    v.swap(out);
  }
}

}  // namespace

// ---- SignatureMatrix ----

void SignatureMatrix::add(const ConnectionRecord& record) {
  ++total_;
  CountryRow& row = rows_[record.country];
  ++row.connections;
  const auto& c = record.classification;
  if (c.possibly_tampered) {
    ++possibly_;
    ++stage_possibly_[static_cast<std::size_t>(c.stage)];
  }
  if (c.signature) {
    ++matched_;
    ++stage_matched_[static_cast<std::size_t>(c.stage)];
    ++row.matches;
    ++row.by_signature[static_cast<std::size_t>(*c.signature)];
    ++signature_totals_[static_cast<std::size_t>(*c.signature)];
  }
}

std::uint64_t SignatureMatrix::country_connections(const std::string& cc) const {
  const auto it = rows_.find(cc);
  return it == rows_.end() ? 0 : it->second.connections;
}

std::uint64_t SignatureMatrix::count(const std::string& cc, core::Signature sig) const {
  const auto it = rows_.find(cc);
  return it == rows_.end() ? 0 : it->second.by_signature[static_cast<std::size_t>(sig)];
}

std::uint64_t SignatureMatrix::signature_total(core::Signature sig) const {
  return signature_totals_[static_cast<std::size_t>(sig)];
}

std::uint64_t SignatureMatrix::country_matches(const std::string& cc) const {
  const auto it = rows_.find(cc);
  return it == rows_.end() ? 0 : it->second.matches;
}

std::uint64_t SignatureMatrix::stage_possibly(core::Stage stage) const {
  return stage_possibly_[static_cast<std::size_t>(stage)];
}

std::uint64_t SignatureMatrix::stage_matched(core::Stage stage) const {
  return stage_matched_[static_cast<std::size_t>(stage)];
}

void SignatureMatrix::snapshot(common::BinWriter& w) const {
  w.u64(total_);
  w.u64(possibly_);
  w.u64(matched_);
  for (std::uint64_t v : signature_totals_) w.u64(v);
  for (std::uint64_t v : stage_possibly_) w.u64(v);
  for (std::uint64_t v : stage_matched_) w.u64(v);
  w.u64(rows_.size());
  for (const auto& [cc, row] : rows_) {
    w.str(cc);
    w.u64(row.connections);
    w.u64(row.matches);
    for (std::uint64_t v : row.by_signature) w.u64(v);
  }
}

void SignatureMatrix::restore(common::BinReader& r) {
  *this = SignatureMatrix();
  total_ = r.u64();
  possibly_ = r.u64();
  matched_ = r.u64();
  for (std::uint64_t& v : signature_totals_) v = r.u64();
  for (std::uint64_t& v : stage_possibly_) v = r.u64();
  for (std::uint64_t& v : stage_matched_) v = r.u64();
  const std::uint64_t rows = r.u64();
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::string cc = r.str();
    CountryRow row;
    row.connections = r.u64();
    row.matches = r.u64();
    for (std::uint64_t& v : row.by_signature) v = r.u64();
    rows_.emplace(std::move(cc), row);
  }
}

std::vector<std::string> SignatureMatrix::countries() const {
  std::vector<std::string> out;
  out.reserve(rows_.size());
  for (const auto& [cc, row] : rows_) out.push_back(cc);
  return out;
}

void SignatureMatrix::merge(const SignatureMatrix& other) {
  total_ += other.total_;
  possibly_ += other.possibly_;
  matched_ += other.matched_;
  for (std::size_t i = 0; i < signature_totals_.size(); ++i)
    signature_totals_[i] += other.signature_totals_[i];
  for (std::size_t i = 0; i < stage_possibly_.size(); ++i)
    stage_possibly_[i] += other.stage_possibly_[i];
  for (std::size_t i = 0; i < stage_matched_.size(); ++i)
    stage_matched_[i] += other.stage_matched_[i];
  for (const auto& [cc, row] : other.rows_) {
    CountryRow& mine = rows_[cc];
    mine.connections += row.connections;
    mine.matches += row.matches;
    for (std::size_t i = 0; i < mine.by_signature.size(); ++i)
      mine.by_signature[i] += row.by_signature[i];
  }
}

// ---- AsnAggregator ----

void AsnAggregator::add(const ConnectionRecord& record) {
  AsnStats& stats = by_country_[record.country][record.asn];
  stats.asn = record.asn;
  ++stats.connections;
  if (record.classification.signature) ++stats.matches;
}

std::vector<AsnAggregator::AsnStats> AsnAggregator::top_ases(const std::string& cc,
                                                             double traffic_share) const {
  std::vector<AsnStats> out;
  const auto it = by_country_.find(cc);
  if (it == by_country_.end()) return out;
  for (const auto& [asn, stats] : it->second) out.push_back(stats);
  std::sort(out.begin(), out.end(), [](const AsnStats& a, const AsnStats& b) {
    return a.connections > b.connections;
  });
  std::uint64_t total = 0;
  for (const auto& stats : out) total += stats.connections;
  const auto target = static_cast<std::uint64_t>(traffic_share * static_cast<double>(total));
  std::uint64_t running = 0;
  std::size_t keep = 0;
  for (; keep < out.size() && running < target; ++keep) running += out[keep].connections;
  out.resize(std::max<std::size_t>(keep, 1));
  return out;
}

std::uint64_t AsnAggregator::country_total(const std::string& cc) const {
  const auto it = by_country_.find(cc);
  if (it == by_country_.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [asn, stats] : it->second) total += stats.connections;
  return total;
}

void AsnAggregator::merge(const AsnAggregator& other) {
  for (const auto& [cc, ases] : other.by_country_) {
    auto& mine = by_country_[cc];
    for (const auto& [asn, stats] : ases) {
      AsnStats& s = mine[asn];
      s.asn = asn;
      s.connections += stats.connections;
      s.matches += stats.matches;
    }
  }
}

void AsnAggregator::snapshot(common::BinWriter& w) const {
  w.u64(by_country_.size());
  for (const auto& [cc, ases] : by_country_) {
    w.str(cc);
    w.u64(ases.size());
    for (const auto& [asn, stats] : ases) {
      w.u32(asn.value());
      w.u64(stats.connections);
      w.u64(stats.matches);
    }
  }
}

void AsnAggregator::restore(common::BinReader& r) {
  by_country_.clear();
  const std::uint64_t countries = r.u64();
  for (std::uint64_t i = 0; i < countries; ++i) {
    std::string cc = r.str();
    auto& ases = by_country_[std::move(cc)];
    const std::uint64_t count = r.u64();
    for (std::uint64_t j = 0; j < count; ++j) {
      AsnStats stats;
      stats.asn = common::AsnId(r.u32());
      stats.connections = r.u64();
      stats.matches = r.u64();
      ases.emplace(stats.asn, stats);
    }
  }
}

// ---- TimeSeries ----

void TimeSeries::add(const ConnectionRecord& record) {
  const std::int64_t hour = record.first_ts_sec / 3600;
  HourBucket& bucket = series_[record.country][hour];
  ++bucket.connections;
  const auto& c = record.classification;
  if (c.signature) {
    ++bucket.by_signature[static_cast<std::size_t>(*c.signature)];
    if (core::is_post_ack_or_psh(*c.signature)) ++bucket.post_ack_psh_matches;
  }
}

const std::map<std::int64_t, TimeSeries::HourBucket>& TimeSeries::country_hours(
    const std::string& cc) const {
  static const std::map<std::int64_t, HourBucket> kEmpty;
  const auto it = series_.find(cc);
  return it == series_.end() ? kEmpty : it->second;
}

std::vector<std::string> TimeSeries::countries() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [cc, hours] : series_) out.push_back(cc);
  return out;
}

void TimeSeries::merge(const TimeSeries& other) {
  for (const auto& [cc, hours] : other.series_) {
    auto& mine = series_[cc];
    for (const auto& [hour, bucket] : hours) {
      HourBucket& b = mine[hour];
      b.connections += bucket.connections;
      b.post_ack_psh_matches += bucket.post_ack_psh_matches;
      for (std::size_t i = 0; i < b.by_signature.size(); ++i)
        b.by_signature[i] += bucket.by_signature[i];
    }
  }
}

void TimeSeries::snapshot(common::BinWriter& w) const {
  w.u64(series_.size());
  for (const auto& [cc, hours] : series_) {
    w.str(cc);
    w.u64(hours.size());
    for (const auto& [hour, bucket] : hours) {
      w.i64(hour);
      w.u64(bucket.connections);
      w.u64(bucket.post_ack_psh_matches);
      for (std::uint64_t v : bucket.by_signature) w.u64(v);
    }
  }
}

void TimeSeries::restore(common::BinReader& r) {
  series_.clear();
  const std::uint64_t countries = r.u64();
  for (std::uint64_t i = 0; i < countries; ++i) {
    std::string cc = r.str();
    auto& hours = series_[std::move(cc)];
    const std::uint64_t count = r.u64();
    for (std::uint64_t j = 0; j < count; ++j) {
      const std::int64_t hour = r.i64();
      HourBucket bucket;
      bucket.connections = r.u64();
      bucket.post_ack_psh_matches = r.u64();
      for (std::uint64_t& v : bucket.by_signature) v = r.u64();
      hours.emplace(hour, bucket);
    }
  }
}

// ---- VersionProtocolAggregator ----

void VersionProtocolAggregator::add(const ConnectionRecord& record) {
  Split& split = by_country_[record.country];
  const auto& c = record.classification;
  const bool post_ack_psh = c.signature && core::is_post_ack_or_psh(*c.signature);
  const bool post_psh = c.signature && core::stage_of(*c.signature) == core::Stage::kPostPsh;

  if (record.ip_version == net::IpVersion::kV4) {
    ++split.v4_total;
    if (post_ack_psh) ++split.v4_matches;
  } else {
    ++split.v6_total;
    if (post_ack_psh) ++split.v6_matches;
  }
  if (record.protocol == appproto::AppProtocol::kTls) {
    ++split.tls_total;
    if (post_psh) ++split.tls_psh_matches;
  } else if (record.protocol == appproto::AppProtocol::kHttp) {
    ++split.http_total;
    if (post_psh) ++split.http_psh_matches;
  }
}

void VersionProtocolAggregator::merge(const VersionProtocolAggregator& other) {
  for (const auto& [cc, split] : other.by_country_) {
    Split& mine = by_country_[cc];
    mine.v4_total += split.v4_total;
    mine.v4_matches += split.v4_matches;
    mine.v6_total += split.v6_total;
    mine.v6_matches += split.v6_matches;
    mine.tls_total += split.tls_total;
    mine.tls_psh_matches += split.tls_psh_matches;
    mine.http_total += split.http_total;
    mine.http_psh_matches += split.http_psh_matches;
  }
}

void VersionProtocolAggregator::snapshot(common::BinWriter& w) const {
  w.u64(by_country_.size());
  for (const auto& [cc, split] : by_country_) {
    w.str(cc);
    w.u64(split.v4_total);
    w.u64(split.v4_matches);
    w.u64(split.v6_total);
    w.u64(split.v6_matches);
    w.u64(split.tls_total);
    w.u64(split.tls_psh_matches);
    w.u64(split.http_total);
    w.u64(split.http_psh_matches);
  }
}

void VersionProtocolAggregator::restore(common::BinReader& r) {
  by_country_.clear();
  const std::uint64_t countries = r.u64();
  for (std::uint64_t i = 0; i < countries; ++i) {
    std::string cc = r.str();
    Split& split = by_country_[std::move(cc)];
    split.v4_total = r.u64();
    split.v4_matches = r.u64();
    split.v6_total = r.u64();
    split.v6_matches = r.u64();
    split.tls_total = r.u64();
    split.tls_psh_matches = r.u64();
    split.http_total = r.u64();
    split.http_psh_matches = r.u64();
  }
}

// ---- CategoryAggregator ----

std::vector<std::uint32_t> CategoryAggregator::name_ranks() const {
  const auto by_name = [this](NameId a, NameId b) { return names_.name(a) < names_.name(b); };
  common::MutexLock lock(order_mu_);
  const std::size_t sorted = by_name_.size();
  by_name_.resize(names_.size());
  const auto newer = by_name_.begin() + static_cast<std::ptrdiff_t>(sorted);
  std::iota(newer, by_name_.end(), static_cast<NameId>(sorted));
  std::sort(newer, by_name_.end(), by_name);
  std::inplace_merge(by_name_.begin(), newer, by_name_.end(), by_name);
  std::vector<std::uint32_t> rank(names_.size());
  for (std::uint32_t i = 0; i < by_name_.size(); ++i) rank[by_name_[i]] = i;
  return rank;
}

CategoryAggregator::CountryData& CategoryAggregator::country(std::string_view cc) {
  const std::uint32_t id = country_ids_.intern(cc);
  if (id == by_country_.size()) by_country_.emplace_back();
  return by_country_[id];
}

const CategoryAggregator::CountryData* CategoryAggregator::find_country(
    std::string_view cc) const {
  const auto id = country_ids_.find(cc);
  return id ? &by_country_[*id] : nullptr;
}

std::vector<std::uint32_t> CategoryAggregator::country_order() const {
  std::vector<std::uint32_t> order(by_country_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    return country_ids_.name(a) < country_ids_.name(b);
  });
  return order;
}

void CategoryAggregator::mark(CountryData& data, DomainCounts& counts, std::uint8_t bit) {
  if ((counts.present & bit) != 0) return;
  counts.present |= bit;
  ++(bit == kInSeen ? data.seen_entries : data.tampered_entries);
}

void CategoryAggregator::add(const ConnectionRecord& record) {
  if (!record.domain) return;
  const NameId id = names_.intern(*record.domain);
  CountryData& data = country(record.country);
  DomainCounts& counts = *data.by_domain.try_emplace(id, {}).first;
  mark(data, counts, kInSeen);
  ++counts.seen;
  // "Post-PSH tampering" in the Table 2/3 sense: the trigger content was
  // visible to us, i.e. the signature fired at or after the first data
  // packet (Post-PSH and Post-Data stages).
  const auto& c = record.classification;
  if (c.signature && (core::stage_of(*c.signature) == core::Stage::kPostPsh ||
                      core::stage_of(*c.signature) == core::Stage::kPostData)) {
    mark(data, counts, kInTampered);
    ++counts.tampered;
  }
}

std::map<world::Category, CategoryAggregator::CategoryStats>
CategoryAggregator::country_stats(const std::string& cc,
                                  std::uint64_t domain_threshold) const {
  std::map<world::Category, CategoryStats> out;
  const CountryData* data = find_country(cc);
  if (data == nullptr) return out;
  data->by_domain.for_each([&](NameId id, const DomainCounts& counts) {
    const bool seen = (counts.present & kInSeen) != 0;
    const bool tampered =
        (counts.present & kInTampered) != 0 && counts.tampered >= domain_threshold;
    if (!seen && !tampered) return;
    const std::string domain(names_.name(id));
    const auto category = lookup_(domain);
    if (!category) return;
    CategoryStats& stats = out[*category];
    if (seen) stats.seen_domains.insert(domain);
    if (tampered) {
      stats.tampered_connections += counts.tampered;
      stats.tampered_domains.insert(domain);
    }
  });
  return out;
}

std::vector<std::string> CategoryAggregator::tampered_domains(
    const std::string& cc, std::uint64_t domain_threshold) const {
  std::vector<std::string> out;
  const CountryData* data = find_country(cc);
  if (data == nullptr) return out;
  data->by_domain.for_each([&](NameId id, const DomainCounts& counts) {
    if ((counts.present & kInTampered) != 0 && counts.tampered >= domain_threshold)
      out.emplace_back(names_.name(id));
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> CategoryAggregator::countries() const {
  std::vector<std::string> out;
  out.reserve(by_country_.size());
  for (const std::uint32_t c : country_order()) out.emplace_back(country_ids_.name(c));
  return out;
}

void CategoryAggregator::merge(const CategoryAggregator& other) {
  // Their ids -> ours, interned once per domain rather than once per entry.
  constexpr NameId kUnmapped = ~NameId{0};
  std::vector<NameId> ours(other.names_.size(), kUnmapped);
  for (std::uint32_t c = 0; c < other.by_country_.size(); ++c) {
    CountryData& mine = country(other.country_ids_.name(c));
    other.by_country_[c].by_domain.for_each([&](NameId their_id, const DomainCounts& counts) {
      NameId& id = ours[their_id];
      if (id == kUnmapped) id = names_.intern(other.names_.name(their_id));
      DomainCounts& sum = *mine.by_domain.try_emplace(id, {}).first;
      sum.tampered += counts.tampered;
      sum.seen += counts.seen;
      if ((counts.present & kInTampered) != 0) mark(mine, sum, kInTampered);
      if ((counts.present & kInSeen) != 0) mark(mine, sum, kInSeen);
    });
  }
}

void CategoryAggregator::snapshot(common::BinWriter& w) const {
  struct Entry {
    std::uint32_t rank;
    NameId id;
    const DomainCounts* counts;
  };
  const std::vector<std::uint32_t> rank = name_ranks();
  std::vector<Entry> entries;
  w.u64(by_country_.size());
  for (const std::uint32_t c : country_order()) {
    const CountryData& data = by_country_[c];
    w.str(country_ids_.name(c));
    entries.clear();
    data.by_domain.for_each([&](NameId id, const DomainCounts& counts) {
      entries.push_back({rank[id], id, &counts});
    });
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.rank < b.rank; });
    w.u64(data.tampered_entries);
    for (const Entry& e : entries) {
      if ((e.counts->present & kInTampered) == 0) continue;
      w.str(names_.name(e.id));
      w.u64(e.counts->tampered);
    }
    w.u64(data.seen_entries);
    for (const Entry& e : entries) {
      if ((e.counts->present & kInSeen) == 0) continue;
      w.str(names_.name(e.id));
      w.u64(e.counts->seen);
    }
  }
}

void CategoryAggregator::restore(common::BinReader& r) {
  // lookup_ is config, not state: keep it.
  {
    common::MutexLock lock(order_mu_);
    by_name_.clear();
  }
  names_.clear();
  country_ids_.clear();
  by_country_.clear();
  // Map-assignment semantics: a duplicated domain keeps its last value.
  const auto read_block = [&](CountryData& data, std::uint8_t bit) {
    const std::uint64_t n = r.u64();
    data.by_domain.reserve(data.by_domain.size() + r.reservable(n, 16));
    for (std::uint64_t i = 0; i < n; ++i) {
      const NameId id = names_.intern(r.str_view());
      const std::uint64_t count = r.u64();
      DomainCounts& counts = *data.by_domain.try_emplace(id, {}).first;
      (bit == kInSeen ? counts.seen : counts.tampered) = count;
      mark(data, counts, bit);
    }
  };
  const std::uint64_t countries = r.u64();
  for (std::uint64_t i = 0; i < countries; ++i) {
    CountryData& data = country(r.str_view());
    read_block(data, kInTampered);
    read_block(data, kInSeen);
  }
}

// ---- OverlapMatrix ----

void OverlapMatrix::add(const ConnectionRecord& record) {
  if (!record.domain) return;
  const common::FlowId key(
      common::mix64(record.client_ip_hash ^ common::fnv1a(*record.domain)));
  const auto state = static_cast<std::uint8_t>(state_of(record.classification));
  const auto [first, inserted] = first_state_.try_emplace(key.value(), state);
  if (inserted) return;          // first observation of this pair
  matrix_[*first][state] += 1;   // (first, next) transition
}

void OverlapMatrix::merge(const OverlapMatrix& other) {
  other.first_state_.for_each([&](std::uint64_t key, std::uint8_t state) {
    const auto [first, inserted] = first_state_.try_emplace(key, state);
    if (!inserted && state < *first) *first = state;
  });
  for (std::size_t i = 0; i < kStates; ++i)
    for (std::size_t j = 0; j < kStates; ++j) matrix_[i][j] += other.matrix_[i][j];
}

void OverlapMatrix::snapshot(common::BinWriter& w) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  pairs.reserve(first_state_.size());
  first_state_.for_each(
      [&](std::uint64_t key, std::uint8_t state) { pairs.emplace_back(key, state); });
  radix_sort_by_key(pairs);
  w.reserve(8 + 16 * pairs.size() + 8 * kStates * kStates);
  w.u64(pairs.size());
  for (const auto& [key, state] : pairs) {
    w.u64(key);
    w.u64(state);
  }
  for (const auto& row : matrix_)
    for (std::uint64_t v : row) w.u64(v);
}

void OverlapMatrix::restore(common::BinReader& r) {
  first_state_.clear();
  const std::uint64_t pairs = r.u64();
  first_state_.reserve(r.reservable(pairs, 16));
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t key = r.u64();
    // States index matrix_ rows; clamp so no payload can yield OOB writes.
    // A duplicated key keeps its last state.
    const auto state = static_cast<std::uint8_t>(std::min<std::uint64_t>(r.u64(), kStates - 1));
    *first_state_.try_emplace(key, state).first = state;
  }
  for (auto& row : matrix_)
    for (std::uint64_t& v : row) v = r.u64();
}

std::uint64_t OverlapMatrix::row_total(std::size_t first_state) const {
  std::uint64_t total = 0;
  for (std::uint64_t v : matrix_[first_state]) total += v;
  return total;
}

}  // namespace tamper::analysis
