// Streaming aggregators behind the paper's tables and figures.
//
// Each aggregator consumes ConnectionRecords; none of them retain raw
// samples (mirroring the paper's aggregate-only reporting, §3.3).
//
// Every aggregator is a commutative monoid under merge(): merge is
// associative and commutative with the default-constructed aggregator as
// identity, so a fleet of PoPs can each aggregate a shard of the traffic
// and a central merger can combine the partials in any order — and any
// grouping — without changing a byte of the merged output
// (tests/test_fleet.cpp pins the three laws against serialized state).
//
// Every aggregator also has a growth operation: for states S and S',
// S'.growth_since(S, D) writes the D with S ⊕ D == S' and refuses when S'
// does not extend S (a count fell, a key vanished). A merger that holds a
// standing fold of many states then folds in only D when one of them
// grows, and the laws above keep the result byte-identical to a fresh
// fold (GrowthLaws.* in tests/test_fleet.cpp).
//
// The per-country aggregators keep their counts in rows: structs of u64
// counters (or arrays of them) whose kCounters table lists every field
// once, in checkpoint-v4 byte order. The table is the row's layout: merge,
// snapshot and restore all walk it (aggregates.cpp), so reordering it
// changes the checkpoint and partial bytes and is a version bump.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analysis/record.h"
#include "common/ids.h"
#include "common/binio.h"
#include "common/flat_table.h"
#include "common/mutex.h"
#include "core/signature.h"
#include "world/category.h"

namespace tamper::analysis {

/// One counter of a growth (see above): d = is - was, noting whether any
/// counter fell (the new state then does not extend the old) or grew.
/// Every growth_since walks its counters through one of these, as merge
/// walks them through a sum.
struct CounterDiff {
  bool fell = false;
  bool grew = false;
  void operator()(std::uint64_t was, std::uint64_t is, std::uint64_t& d) noexcept {
    fell |= is < was;
    d = is - was;
    grew |= d != 0;
  }
};

/// Counts of signature matches cross-tabulated by country.
/// Figure 1 reads columns (country composition of each signature);
/// Figure 4 reads rows (signature composition of each country).
class SignatureMatrix {
 public:
  void add(const ConnectionRecord& record);

  [[nodiscard]] std::uint64_t total_connections() const noexcept { return totals_.total; }
  [[nodiscard]] std::uint64_t country_connections(const std::string& cc) const;
  [[nodiscard]] std::uint64_t count(const std::string& cc, core::Signature sig) const;
  [[nodiscard]] std::uint64_t signature_total(core::Signature sig) const;
  [[nodiscard]] std::uint64_t country_matches(const std::string& cc) const;
  [[nodiscard]] std::uint64_t possibly_tampered() const noexcept { return totals_.possibly; }
  [[nodiscard]] std::uint64_t matched() const noexcept { return totals_.matched; }
  /// Possibly-tampered / matched counts per connection stage (Table 1 text).
  [[nodiscard]] std::uint64_t stage_possibly(core::Stage stage) const;
  [[nodiscard]] std::uint64_t stage_matched(core::Stage stage) const;

  [[nodiscard]] std::vector<std::string> countries() const;

  struct CountryRow {
    std::array<std::uint64_t, core::kSignatureCount> by_signature{};
    std::uint64_t connections = 0;
    std::uint64_t matches = 0;
    static constexpr std::tuple kCounters{&CountryRow::connections, &CountryRow::matches,
                                          &CountryRow::by_signature};
  };
  /// Direct read-only view of the per-country rows, sorted by country code.
  /// The trends rollup iterates this instead of countries() + per-country
  /// lookups — one tree walk instead of hundreds (DESIGN.md §12 overhead
  /// contract).
  [[nodiscard]] const std::map<std::string, CountryRow>& rows() const noexcept {
    return rows_;
  }

  /// Pointwise count sum (commutative monoid).
  void merge(const SignatureMatrix& other);
  /// Pointwise count difference; refuses a fallen count or a vanished
  /// country.
  [[nodiscard]] bool growth_since(const SignatureMatrix& old,
                                  SignatureMatrix& growth) const;

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  /// The all-country header, written before the per-country rows.
  struct Totals {
    std::uint64_t total = 0;
    std::uint64_t possibly = 0;
    std::uint64_t matched = 0;
    std::array<std::uint64_t, core::kSignatureCount> signature_totals{};
    std::array<std::uint64_t, 5> stage_possibly{};
    std::array<std::uint64_t, 5> stage_matched{};
    static constexpr std::tuple kCounters{&Totals::total, &Totals::possibly, &Totals::matched,
                                          &Totals::signature_totals, &Totals::stage_possibly,
                                          &Totals::stage_matched};
  };

  Totals totals_;
  std::map<std::string, CountryRow> rows_;
};

/// Per-AS match proportions within each country (Figure 5).
class AsnAggregator {
 public:
  void add(const ConnectionRecord& record);

  /// One AS's counts within a country; the map key is the AS.
  struct AsnCounts {
    std::uint64_t connections = 0;
    std::uint64_t matches = 0;
    static constexpr std::tuple kCounters{&AsnCounts::connections, &AsnCounts::matches};
  };
  struct AsnStats : AsnCounts {
    common::AsnId asn{};
    [[nodiscard]] double match_percent() const noexcept {
      return connections == 0 ? 0.0
                              : 100.0 * static_cast<double>(matches) /
                                    static_cast<double>(connections);
    }
  };
  /// ASes collectively originating `traffic_share` of a country's
  /// connections (paper: top 80%), largest first.
  [[nodiscard]] std::vector<AsnStats> top_ases(const std::string& cc,
                                               double traffic_share = 0.8) const;
  [[nodiscard]] std::uint64_t country_total(const std::string& cc) const;

  /// Pointwise count sum (commutative monoid).
  void merge(const AsnAggregator& other);
  /// Pointwise count difference; refuses a fallen count or a vanished key.
  [[nodiscard]] bool growth_since(const AsnAggregator& old, AsnAggregator& growth) const;

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  /// Keyed by strong id; AsnId orders by its raw rep, so snapshot bytes
  /// are unchanged from the u32-keyed layout.
  std::map<std::string, std::map<common::AsnId, AsnCounts>> by_country_;
};

/// Hourly time series of match rates (Figures 6, 8, 9).
class TimeSeries {
 public:
  enum class Metric : std::uint8_t {
    kPostAckPostPsh,  ///< Fig. 6: Post-ACK + Post-PSH signatures only
    kPerSignature,    ///< Figs. 8/9: every signature separately
  };

  void add(const ConnectionRecord& record);

  struct HourBucket {
    std::uint64_t connections = 0;
    std::uint64_t post_ack_psh_matches = 0;
    std::array<std::uint64_t, core::kSignatureCount> by_signature{};
    static constexpr std::tuple kCounters{&HourBucket::connections,
                                          &HourBucket::post_ack_psh_matches,
                                          &HourBucket::by_signature};
  };
  /// Buckets keyed by hour index (epoch seconds / 3600) for one country.
  [[nodiscard]] const std::map<std::int64_t, HourBucket>& country_hours(
      const std::string& cc) const;
  [[nodiscard]] std::vector<std::string> countries() const;

  /// Pointwise bucket sum (commutative monoid).
  void merge(const TimeSeries& other);
  /// Pointwise count difference; refuses a fallen count or a vanished key.
  [[nodiscard]] bool growth_since(const TimeSeries& old, TimeSeries& growth) const;

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  std::map<std::string, std::map<std::int64_t, HourBucket>> series_;
};

/// IPv4-vs-IPv6 and TLS-vs-HTTP comparison (Figure 7).
class VersionProtocolAggregator {
 public:
  void add(const ConnectionRecord& record);

  struct Split {
    std::uint64_t v4_total = 0, v4_matches = 0;        ///< Post-ACK+PSH matches
    std::uint64_t v6_total = 0, v6_matches = 0;
    std::uint64_t tls_total = 0, tls_psh_matches = 0;  ///< Post-PSH matches
    std::uint64_t http_total = 0, http_psh_matches = 0;
    static constexpr std::tuple kCounters{
        &Split::v4_total,  &Split::v4_matches,      &Split::v6_total,   &Split::v6_matches,
        &Split::tls_total, &Split::tls_psh_matches, &Split::http_total, &Split::http_psh_matches};
  };
  [[nodiscard]] const std::map<std::string, Split>& by_country() const noexcept {
    return by_country_;
  }

  /// Pointwise split sum (commutative monoid).
  void merge(const VersionProtocolAggregator& other);
  /// Pointwise count difference; refuses a fallen count or a vanished key.
  [[nodiscard]] bool growth_since(const VersionProtocolAggregator& old,
                                  VersionProtocolAggregator& growth) const;

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  std::map<std::string, Split> by_country_;
};

/// Category view of Post-PSH tampering (Table 2). Needs a category oracle
/// (domain name -> category), injected so the aggregator stays decoupled
/// from the world model.
class CategoryAggregator {
 public:
  using CategoryLookup = std::function<std::optional<world::Category>(const std::string&)>;

  explicit CategoryAggregator(CategoryLookup lookup) : lookup_(std::move(lookup)) {}

  void add(const ConnectionRecord& record);

  struct CategoryStats {
    std::uint64_t tampered_connections = 0;
    std::set<std::string> tampered_domains;
    std::set<std::string> seen_domains;  ///< all domains requested, tampered or not
  };

  /// Apply the paper's >=100-matches-per-domain confidence threshold and
  /// return per-category stats for one country.
  [[nodiscard]] std::map<world::Category, CategoryStats> country_stats(
      const std::string& cc, std::uint64_t domain_threshold = 100) const;
  /// The tampered-domain set for a region (for the Table 3 test-list audit).
  [[nodiscard]] std::vector<std::string> tampered_domains(
      const std::string& cc, std::uint64_t domain_threshold = 100) const;
  [[nodiscard]] std::vector<std::string> countries() const;

  /// Pointwise per-domain count sum (commutative monoid; lookup_ is config
  /// and never merged).
  void merge(const CategoryAggregator& other);
  /// Per (country, domain): refuses a fallen count or a lost presence bit.
  [[nodiscard]] bool growth_since(const CategoryAggregator& old,
                                  CategoryAggregator& growth) const;

  /// Serializes the per-domain counts only; the category lookup is config,
  /// re-injected by whoever constructs the restoring aggregator. Per
  /// country: the tampered block, then the seen block, each in domain-name
  /// order.
  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  /// Interned domain: dense in first-seen order, per aggregator.
  using NameId = std::uint32_t;
  static constexpr std::uint8_t kInTampered = 1;
  static constexpr std::uint8_t kInSeen = 2;
  /// Both counts of one (country, domain) pair, plus which snapshot blocks
  /// hold it. Presence is state of its own: add() sets kInSeen, and a
  /// restored zero count is written back.
  struct DomainCounts {
    std::uint64_t tampered = 0;
    std::uint64_t seen = 0;
    std::uint8_t present = 0;  ///< kInTampered | kInSeen
  };
  struct CountryData {
    common::FlatTable<NameId, DomainCounts> by_domain;
    std::uint64_t tampered_entries = 0;  ///< entries with kInTampered
    std::uint64_t seen_entries = 0;      ///< entries with kInSeen
  };
  /// Marks `counts` present in the block behind `bit`, counting it into
  /// that block's size the first time.
  static void mark(CountryData& data, DomainCounts& counts, std::uint8_t bit);
  CountryData& country(std::string_view cc);
  [[nodiscard]] const CountryData* find_country(std::string_view cc) const;
  /// Country ids in country-code order.
  [[nodiscard]] std::vector<std::uint32_t> country_order() const;
  /// rank[id] = position of domain `id` in name order.
  [[nodiscard]] std::vector<std::uint32_t> name_ranks() const TAMPER_EXCLUDES(order_mu_);

  CategoryLookup lookup_;
  common::NameInterner names_;  ///< domain <-> NameId
  /// Ids in name order, covering [0, by_name_.size()). Only a snapshot
  /// reads the order, so only a snapshot extends it: it sorts the ids
  /// interned since the last one and merges them in. add() never pays for
  /// the order.
  mutable common::Mutex order_mu_;
  mutable std::vector<NameId> by_name_ TAMPER_GUARDED_BY(order_mu_);
  common::NameInterner country_ids_;     ///< country code <-> by_country_ index
  std::vector<CountryData> by_country_;
};

/// First-vs-next signature for repeated (client IP, domain) pairs
/// (Figure 10 / Appendix B). Values 0..18 are signatures; 19 = clean.
class OverlapMatrix {
 public:
  static constexpr std::size_t kStates = core::kSignatureCount + 1;

  void add(const ConnectionRecord& record);

  [[nodiscard]] std::uint64_t count(std::size_t first_state, std::size_t next_state) const {
    return matrix_[first_state][next_state];
  }
  [[nodiscard]] std::uint64_t row_total(std::size_t first_state) const;
  [[nodiscard]] static std::size_t state_of(const core::Classification& c) noexcept {
    return c.signature ? static_cast<std::size_t>(*c.signature) : kStates - 1;
  }

  /// Transition-count sum. A (client, domain) pair normally lives on one
  /// PoP (anycast routes by client prefix), so first_state_ keys rarely
  /// collide across shards; after a failover both sides may have seen a
  /// "first" — the smaller state wins, which keeps merge commutative and
  /// associative (min is).
  void merge(const OverlapMatrix& other);
  /// New pairs plus the transition-count difference; refuses a vanished
  /// pair or one whose first state changed.
  [[nodiscard]] bool growth_since(const OverlapMatrix& old, OverlapMatrix& growth) const;

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  /// Pair hash (common::FlowId's raw rep) -> first state.
  common::FlatTable<std::uint64_t, std::uint8_t> first_state_;
  std::array<std::array<std::uint64_t, kStates>, kStates> matrix_{};
};

}  // namespace tamper::analysis
