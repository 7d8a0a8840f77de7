// Little-endian binary serialization for checkpoint payloads.
//
// Deliberately tiny: fixed-width integers, IEEE doubles (bit-cast), and
// length-prefixed strings. BinReader throws BinUnderrun on any read past
// the end of the buffer, so a truncated payload surfaces as one typed
// exception the checkpoint loader turns into a clean refusal — never as
// garbage state in an aggregator.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tamper::common {

class BinUnderrun : public std::runtime_error {
 public:
  BinUnderrun() : std::runtime_error("binary payload truncated") {}
};

/// FNV-1a over a byte buffer (checkpoint payload checksums).
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(const std::uint8_t* data,
                                                 std::size_t size) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    const auto* b = reinterpret_cast<const std::uint8_t*>(s.data());
    buf_.insert(buf_.end(), b, b + s.size());
  }

  /// Room for `n` more bytes. Growth stays geometric, so a writer that
  /// reserves block by block still reallocates O(log size) times.
  void reserve(std::size_t n) {
    if (buf_.capacity() - buf_.size() < n)
      buf_.reserve(std::max(buf_.size() + n, 2 * buf_.capacity()));
  }
  /// A checksummed block, the body of the checkpoint and partial envelopes:
  /// a u64 byte count, the bytes, then their FNV-1a. begin_block() writes a
  /// count placeholder and returns where the bytes start; end_block() patches
  /// the count in and appends the checksum. The bytes are written in place,
  /// never copied.
  std::size_t begin_block() {
    u64(0);
    return buf_.size();
  }
  void end_block(std::size_t start) {
    const std::size_t n = buf_.size() - start;
    for (std::size_t i = 0; i < 8; ++i)
      buf_[start - 8 + i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(n) >> (8 * i));
    u64(fnv1a_bytes(buf_.data() + start, n));
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    if constexpr (std::endian::native == std::endian::little) {
      buf_.insert(buf_.end(), b, b + n);
    } else {
      for (std::size_t i = n; i > 0; --i) buf_.push_back(b[i - 1]);
    }
  }
  std::vector<std::uint8_t> buf_;
};

class BinReader {
 public:
  BinReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit BinReader(const std::vector<std::uint8_t>& bytes)
      : BinReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint16_t u16() { return load<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return load<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return load<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() { return std::string(str_view()); }
  /// A length-prefixed string as a view into the reader's buffer (valid
  /// while the buffer is).
  [[nodiscard]] std::string_view str_view() {
    const std::uint64_t n = u64();
    if (n > remaining()) throw BinUnderrun();
    const std::uint8_t* p = take(static_cast<std::size_t>(n));
    return {reinterpret_cast<const char*>(p), static_cast<std::size_t>(n)};
  }
  /// A declared element count clamped for pre-reservation: no more than the
  /// remaining bytes could hold at `min_bytes` per element, and never above
  /// 2^20. The per-element reads still validate the full count.
  [[nodiscard]] std::size_t reservable(std::uint64_t n, std::size_t min_bytes) const noexcept {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>({n, remaining() / min_bytes, std::uint64_t{1} << 20}));
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }

 private:
  template <typename T>
  [[nodiscard]] T load() {
    const std::uint8_t* p = take(sizeof(T));
    T v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, sizeof(T));
    } else {
      std::uint8_t swapped[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i) swapped[i] = p[sizeof(T) - 1 - i];
      std::memcpy(&v, swapped, sizeof(T));
    }
    return v;
  }
  [[nodiscard]] const std::uint8_t* take(std::size_t n) {
    if (n > remaining()) throw BinUnderrun();
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace tamper::common
