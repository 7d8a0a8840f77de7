// Checkpoint serialization writes every aggregate in a canonical order, so
// a snapshot is a pure function of the counts: save -> restore -> save is
// byte-identical (tests/test_service.cpp pins the bytes). The order comes
// from the layouts, in linear passes with no per-key lookup and no string
// copies:
//   * SignatureMatrix, AsnAggregator, TimeSeries and
//     VersionProtocolAggregator hold counter rows in ordered maps keyed by
//     country and, for ASNs and hours, nested once more. A row's kCounters
//     table (aggregates.h) is its layout: the one set of templates below
//     merges, writes and reads every row and map by walking the tables, so
//     no codec names a counter. A key is coded by its type: a country as
//     str, an hour as i64, an AsnId as u32. Restore is map-assignment: the
//     last value of a duplicated leaf key wins, and a repeated country
//     keeps all its distinct inner keys.
//   * OverlapMatrix collects the (key, state) pairs of its flat table and
//     radix-sorts them by key; its transition matrix is walked like a row.
//   * CategoryAggregator interns each domain and country once, keeps one
//     entry per (country, domain) with both counts, and sorts each
//     country's entries by the integer rank of the domain name. The name
//     order is extended only at snapshot time, by merging in the names
//     interned since the last snapshot.
#include "analysis/aggregates.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <tuple>
#include <type_traits>
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

// ---- counter rows and the maps that hold them ----

/// Calls `f` on the corresponding counters of one or more same-shaped
/// values: a u64 is one counter, an array is visited element by element.
template <typename F, typename Counter, typename... More>
constexpr void each_counter(F&& f, Counter& counter, More&... more) {
  if constexpr (std::is_integral_v<std::remove_const_t<Counter>>) {
    f(counter, more...);
  } else {
    for (std::size_t i = 0; i < counter.size(); ++i) each_counter(f, counter[i], more[i]...);
  }
}

template <typename Row>
constexpr std::size_t counters_in() {
  Row row{};
  std::size_t n = 0;
  const auto count = [&n](std::uint64_t) { ++n; };
  std::apply([&](auto... fields) { (each_counter(count, row.*fields), ...); }, Row::kCounters);
  return n;
}

/// each_counter over the fields of same-typed rows, in kCounters order.
template <typename F, typename Row, typename... More>
constexpr void row_counters(F&& f, Row& row, More&... more) {
  using Plain = std::remove_const_t<Row>;
  // A row holds nothing but u64 counters, so a field missing from its
  // kCounters table shows as a size mismatch.
  static_assert(sizeof(Plain) == 8 * counters_in<Plain>(), "field missing from kCounters");
  const auto visit = [&](auto field) { each_counter(f, row.*field, more.*field...); };
  std::apply([&](auto... fields) { (visit(fields), ...); }, Plain::kCounters);
}

constexpr auto kAdd = [](std::uint64_t& sum, std::uint64_t v) { sum += v; };

void write_key(common::BinWriter& w, const std::string& cc) { w.str(cc); }
void write_key(common::BinWriter& w, std::int64_t hour) { w.i64(hour); }
void write_key(common::BinWriter& w, common::AsnId asn) { w.u32(asn.value()); }
void read_key(common::BinReader& r, std::string& cc) { cc = r.str(); }
void read_key(common::BinReader& r, std::int64_t& hour) { hour = r.i64(); }
void read_key(common::BinReader& r, common::AsnId& asn) { asn = common::AsnId(r.u32()); }

template <typename Row>
void merge_counts(Row& mine, const Row& theirs) {
  row_counters(kAdd, mine, theirs);
}
template <typename Row>
void write_counts(common::BinWriter& w, const Row& row) {
  row_counters([&w](std::uint64_t v) { w.u64(v); }, row);
}
template <typename Row>
void read_counts(common::BinReader& r, Row& row) {
  row_counters([&r](std::uint64_t& v) { v = r.u64(); }, row);
}

template <typename K, typename V>
void merge_counts(std::map<K, V>& mine, const std::map<K, V>& theirs) {
  for (const auto& [key, value] : theirs) merge_counts(mine[key], value);
}

/// What growth_counts found: the new state does not extend the old one, is
/// the same, or grew.
enum class Growth : std::uint8_t { kRefused, kSame, kGrew };

/// growth = now - old, counter by counter; refused if any counter fell.
template <typename Row>
Growth growth_counts(const Row& old, const Row& now, Row& growth) {
  CounterDiff diff;
  row_counters(diff, old, now, growth);
  return diff.fell ? Growth::kRefused : diff.grew ? Growth::kGrew : Growth::kSame;
}

/// Walks both maps in key order. A new key is growth as a whole, even when
/// its row is zero (merge creates the key); a kept key enters `growth` only
/// when its row grew; a vanished key refuses.
template <typename K, typename V>
Growth growth_counts(const std::map<K, V>& old, const std::map<K, V>& now,
                     std::map<K, V>& growth) {
  auto was = old.begin();
  for (const auto& [key, value] : now) {
    if (was != old.end() && old.key_comp()(was->first, key)) return Growth::kRefused;
    if (was == old.end() || old.key_comp()(key, was->first)) {
      growth.emplace_hint(growth.end(), key, value);
      continue;
    }
    V d{};
    const Growth g = growth_counts(was->second, value, d);
    ++was;
    if (g == Growth::kRefused) return g;
    if (g == Growth::kGrew) growth.emplace_hint(growth.end(), key, std::move(d));
  }
  if (was != old.end()) return Growth::kRefused;
  return growth.empty() ? Growth::kSame : Growth::kGrew;
}

template <typename K, typename V>
void write_counts(common::BinWriter& w, const std::map<K, V>& map) {
  w.u64(map.size());
  for (const auto& [key, value] : map) {
    write_key(w, key);
    write_counts(w, value);
  }
}

/// Map-assignment: a duplicated key reads into the entry already there, so
/// the last value of a leaf key wins and a repeated outer key keeps its
/// distinct inner keys.
template <typename K, typename V>
void read_counts(common::BinReader& r, std::map<K, V>& map) {
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    K key;
    read_key(r, key);
    read_counts(r, map[std::move(key)]);
  }
}

template <typename V>
std::vector<std::string> keys_of(const std::map<std::string, V>& map) {
  std::vector<std::string> out;
  out.reserve(map.size());
  for (const auto& [key, value] : map) out.push_back(key);
  return out;
}

}  // namespace

// ---- SignatureMatrix ----

void SignatureMatrix::add(const ConnectionRecord& record) {
  ++totals_.total;
  CountryRow& row = rows_[record.country];
  ++row.connections;
  const auto& c = record.classification;
  if (c.possibly_tampered) {
    ++totals_.possibly;
    ++totals_.stage_possibly[static_cast<std::size_t>(c.stage)];
  }
  if (c.signature) {
    ++totals_.matched;
    ++totals_.stage_matched[static_cast<std::size_t>(c.stage)];
    ++row.matches;
    ++row.by_signature[static_cast<std::size_t>(*c.signature)];
    ++totals_.signature_totals[static_cast<std::size_t>(*c.signature)];
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
  return totals_.signature_totals[static_cast<std::size_t>(sig)];
}

std::uint64_t SignatureMatrix::country_matches(const std::string& cc) const {
  const auto it = rows_.find(cc);
  return it == rows_.end() ? 0 : it->second.matches;
}

std::uint64_t SignatureMatrix::stage_possibly(core::Stage stage) const {
  return totals_.stage_possibly[static_cast<std::size_t>(stage)];
}

std::uint64_t SignatureMatrix::stage_matched(core::Stage stage) const {
  return totals_.stage_matched[static_cast<std::size_t>(stage)];
}

std::vector<std::string> SignatureMatrix::countries() const { return keys_of(rows_); }

void SignatureMatrix::snapshot(common::BinWriter& w) const {
  write_counts(w, totals_);
  write_counts(w, rows_);
}

void SignatureMatrix::restore(common::BinReader& r) {
  *this = SignatureMatrix();
  read_counts(r, totals_);
  read_counts(r, rows_);
}

void SignatureMatrix::merge(const SignatureMatrix& other) {
  merge_counts(totals_, other.totals_);
  merge_counts(rows_, other.rows_);
}

bool SignatureMatrix::growth_since(const SignatureMatrix& old,
                                   SignatureMatrix& growth) const {
  return growth_counts(old.totals_, totals_, growth.totals_) != Growth::kRefused &&
         growth_counts(old.rows_, rows_, growth.rows_) != Growth::kRefused;
}

// ---- AsnAggregator ----

void AsnAggregator::add(const ConnectionRecord& record) {
  AsnCounts& counts = by_country_[record.country][record.asn];
  ++counts.connections;
  if (record.classification.signature) ++counts.matches;
}

std::vector<AsnAggregator::AsnStats> AsnAggregator::top_ases(const std::string& cc,
                                                             double traffic_share) const {
  std::vector<AsnStats> out;
  const auto it = by_country_.find(cc);
  if (it == by_country_.end()) return out;
  for (const auto& [asn, counts] : it->second) out.push_back({counts, asn});
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
  for (const auto& [asn, counts] : it->second) total += counts.connections;
  return total;
}

void AsnAggregator::merge(const AsnAggregator& other) {
  merge_counts(by_country_, other.by_country_);
}

bool AsnAggregator::growth_since(const AsnAggregator& old, AsnAggregator& growth) const {
  return growth_counts(old.by_country_, by_country_, growth.by_country_) !=
         Growth::kRefused;
}

void AsnAggregator::snapshot(common::BinWriter& w) const { write_counts(w, by_country_); }

void AsnAggregator::restore(common::BinReader& r) {
  by_country_.clear();
  read_counts(r, by_country_);
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

std::vector<std::string> TimeSeries::countries() const { return keys_of(series_); }

void TimeSeries::merge(const TimeSeries& other) { merge_counts(series_, other.series_); }

bool TimeSeries::growth_since(const TimeSeries& old, TimeSeries& growth) const {
  return growth_counts(old.series_, series_, growth.series_) != Growth::kRefused;
}

void TimeSeries::snapshot(common::BinWriter& w) const { write_counts(w, series_); }

void TimeSeries::restore(common::BinReader& r) {
  series_.clear();
  read_counts(r, series_);
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
  merge_counts(by_country_, other.by_country_);
}

bool VersionProtocolAggregator::growth_since(const VersionProtocolAggregator& old,
                                             VersionProtocolAggregator& growth) const {
  return growth_counts(old.by_country_, by_country_, growth.by_country_) !=
         Growth::kRefused;
}

void VersionProtocolAggregator::snapshot(common::BinWriter& w) const {
  write_counts(w, by_country_);
}

void VersionProtocolAggregator::restore(common::BinReader& r) {
  by_country_.clear();
  read_counts(r, by_country_);
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

bool CategoryAggregator::growth_since(const CategoryAggregator& old,
                                      CategoryAggregator& growth) const {
  // Our ids -> old's, looked up once per domain rather than once per entry.
  constexpr NameId kUnmapped = ~NameId{0};
  constexpr NameId kAbsent = kUnmapped - 1;
  std::vector<NameId> theirs(names_.size(), kUnmapped);
  std::size_t countries_kept = 0;
  for (std::uint32_t c = 0; c < by_country_.size(); ++c) {
    const std::string_view cc = country_ids_.name(c);
    const CountryData* was = old.find_country(cc);
    // A new country is growth even when empty (merge creates it); a kept
    // one enters `growth` with its first grown entry.
    CountryData* out = was == nullptr ? &growth.country(cc) : nullptr;
    if (was != nullptr) ++countries_kept;
    std::size_t entries_kept = 0;
    bool refused = false;
    by_country_[c].by_domain.for_each([&](NameId id, const DomainCounts& is) {
      if (refused) return;
      DomainCounts d = is;
      if (was != nullptr) {
        NameId& old_id = theirs[id];
        if (old_id == kUnmapped)
          old_id = old.names_.find(names_.name(id)).value_or(kAbsent);
        const DomainCounts* prior =
            old_id == kAbsent ? nullptr : was->by_domain.find(old_id);
        if (prior != nullptr) {
          ++entries_kept;
          if (is.tampered < prior->tampered || is.seen < prior->seen ||
              (prior->present & ~is.present) != 0) {
            refused = true;
            return;
          }
          d.tampered -= prior->tampered;
          d.seen -= prior->seen;
          if (d.tampered == 0 && d.seen == 0 && is.present == prior->present) return;
        }
      }
      if (out == nullptr) out = &growth.country(cc);
      DomainCounts& sum =
          *out->by_domain.try_emplace(growth.names_.intern(names_.name(id)), {}).first;
      sum.tampered = d.tampered;
      sum.seen = d.seen;
      if ((is.present & kInTampered) != 0) mark(*out, sum, kInTampered);
      if ((is.present & kInSeen) != 0) mark(*out, sum, kInSeen);
    });
    if (refused || (was != nullptr && entries_kept != was->by_domain.size())) return false;
  }
  return countries_kept == old.by_country_.size();
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
  // Room first: other's keys arrive in its slot order, which is hash order,
  // and a smaller table would wrap them onto its filled slots and probe
  // through one ever-longer cluster.
  first_state_.reserve(first_state_.size() + other.first_state_.size());
  other.first_state_.for_each([&](std::uint64_t key, std::uint8_t state) {
    const auto [first, inserted] = first_state_.try_emplace(key, state);
    if (!inserted && state < *first) *first = state;
  });
  each_counter(kAdd, matrix_, other.matrix_);
}

bool OverlapMatrix::growth_since(const OverlapMatrix& old, OverlapMatrix& growth) const {
  std::size_t kept = 0;
  bool refused = false;
  first_state_.for_each([&](std::uint64_t key, std::uint8_t state) {
    const std::uint8_t* first = old.first_state_.find(key);
    if (first == nullptr) {
      growth.first_state_.try_emplace(key, state);
    } else if (*first == state) {
      ++kept;
    } else {
      refused = true;
    }
  });
  if (refused || kept != old.first_state_.size()) return false;
  CounterDiff diff;
  each_counter(diff, old.matrix_, matrix_, growth.matrix_);
  return !diff.fell;
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
  each_counter([&w](std::uint64_t v) { w.u64(v); }, matrix_);
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
  each_counter([&r](std::uint64_t& v) { v = r.u64(); }, matrix_);
}

std::uint64_t OverlapMatrix::row_total(std::size_t first_state) const {
  std::uint64_t total = 0;
  for (std::uint64_t v : matrix_[first_state]) total += v;
  return total;
}

}  // namespace tamper::analysis
