// Flat open-addressing containers for aggregate state: FlatTable maps
// integer keys to values, NameInterner maps strings to dense ids.
//
// Built for aggregate state that is updated per sample and walked in bulk:
// a lookup probes adjacent slots (linear probing, usually one cache line),
// and a snapshot or merge walks the slot array in memory order — no node
// chasing. Every key value is storable (occupancy is a per-slot flag, not a
// sentinel key). There is no erase: aggregate state only grows.
//
// Iteration order is slot order, a function of the insertion history, so
// anything that must be byte-stable (checkpoints) sorts what it collects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace tamper::common {

template <typename K, typename V>
class FlatTable {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The value for `key`, inserting `init` first when absent; `second` is
  /// true when this call inserted. The pointer is valid until the next
  /// insertion.
  std::pair<V*, bool> try_emplace(K key, const V& init) {
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(slots_.empty() ? 16 : 2 * slots_.size());
    Slot& slot = slots_[probe(key)];
    if (slot.used) return {&slot.value, false};
    slot.key = key;
    slot.used = true;
    slot.value = init;
    ++size_;
    return {&slot.value, true};
  }

  /// The value for `key`, or null when absent (never inserts).
  [[nodiscard]] const V* find(K key) const noexcept {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[probe(key)];
    return slot.used ? &slot.value : nullptr;
  }

  /// Room for `n` keys in total without a rehash.
  void reserve(std::size_t n) {
    std::size_t capacity = 16;
    while (n * 4 > capacity * 3) capacity *= 2;
    if (capacity > slots_.size()) rehash(capacity);
  }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
  }

  /// Calls f(key, value) for every entry, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& slot : slots_)
      if (slot.used) f(slot.key, slot.value);
  }

 private:
  /// The slot holding `key`, or the free slot where it would go. The load
  /// factor stays at or below 3/4, so a free slot always exists.
  [[nodiscard]] std::size_t probe(K key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(key))) & mask;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    for (const Slot& slot : old)
      if (slot.used) slots_[probe(slot.key)] = slot;
  }

  struct Slot {
    K key{};
    bool used = false;
    V value{};
  };

  std::vector<Slot> slots_;  ///< power-of-two size (or empty)
  std::size_t size_ = 0;
};

/// Interns strings as dense ids: the k-th distinct name gets id k. Names
/// live back to back in one arena and the index is a flat table of ids, so
/// interning a new name allocates only when one of them grows.
class NameInterner {
 public:
  std::uint32_t intern(std::string_view name) {
    if ((spans_.size() + 1) * 2 > slots_.size()) rehash(slots_.empty() ? 64 : 2 * slots_.size());
    const std::uint64_t hash = std::hash<std::string_view>{}(name);
    std::uint32_t& slot = slots_[probe(name, hash)];
    if (slot == 0) {
      slot = static_cast<std::uint32_t>(spans_.size()) + 1;
      spans_.push_back({hash, arena_.size(), name.size()});
      arena_.append(name);
    }
    return slot - 1;
  }

  /// The id of `name` if it was interned (never interns).
  [[nodiscard]] std::optional<std::uint32_t> find(std::string_view name) const noexcept {
    if (slots_.empty()) return std::nullopt;
    const std::uint32_t slot = slots_[probe(name, std::hash<std::string_view>{}(name))];
    if (slot == 0) return std::nullopt;
    return slot - 1;
  }

  /// The name behind `id`; valid until the next intern().
  [[nodiscard]] std::string_view name(std::uint32_t id) const noexcept {
    return {arena_.data() + spans_[id].offset, spans_[id].size};
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  void clear() noexcept {
    arena_.clear();
    spans_.clear();
    slots_.clear();
  }

 private:
  struct Span {
    std::uint64_t hash;
    std::size_t offset;
    std::size_t size;
  };

  /// The slot holding `name`'s id, or the free slot where it would go.
  [[nodiscard]] std::size_t probe(std::string_view name, std::uint64_t hash) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (slots_[i] != 0 &&
           (spans_[slots_[i] - 1].hash != hash || this->name(slots_[i] - 1) != name))
      i = (i + 1) & mask;
    return i;
  }

  void rehash(std::size_t capacity) {
    slots_.assign(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::uint32_t id = 0; id < spans_.size(); ++id) {
      std::size_t i = static_cast<std::size_t>(spans_[id].hash) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }

  std::string arena_;
  std::vector<Span> spans_;           ///< id -> where its name lives
  std::vector<std::uint32_t> slots_;  ///< id + 1, or 0 when free; load <= 1/2
};

}  // namespace tamper::common
