// The benchmark's own statistics: nearest-rank percentiles with the
// "at least ten samples beyond" rule, and open-loop latency accounting
// that times each request from when it was due, not when it was sent.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave above it to be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank position (1-based) of percentile `q` (0 < q <= 100) in
/// `n` samples: the smallest rank r with r / n >= q / 100.
[[nodiscard]] inline std::size_t rank_of(std::size_t n, double q) {
  if (n == 0) return 0;
  const double exact = q / 100.0 * static_cast<double>(n);
  // Guard against 0.99 * 1000 landing a hair above 990.
  auto r = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Samples ranked strictly above percentile `q`.
[[nodiscard]] inline std::size_t beyond(std::size_t n, double q) {
  return n - rank_of(n, q);
}

/// True when percentile `q` of `n` samples leaves kMinBeyond samples above it.
[[nodiscard]] inline bool tail_supported(std::size_t n, double q) {
  return n > 0 && beyond(n, q) >= kMinBeyond;
}

/// Nearest-rank percentile; NaN for an empty input.
[[nodiscard]] inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t r = rank_of(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   samples.end());
  return samples[r - 1];
}

/// Tail percentile `q`, or NaN ("unsupported") when the samples leave
/// fewer than kMinBeyond above it: such a figure is reported as null.
[[nodiscard]] inline double tail_percentile(std::vector<double> samples, double q) {
  if (!tail_supported(samples.size(), q)) return std::numeric_limits<double>::quiet_NaN();
  return percentile(std::move(samples), q);
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Open-loop schedule at a fixed rate. Request i is due at
/// start + i / rate. Latency runs from the due time to completion, so a
/// stall that delays later sends is charged to every request it delayed;
/// how late the sender itself ran is kept separately.
///
/// Completions are FIFO: `completed(count, now)` says the first `count`
/// accepted requests are done by `now`. A refused request never completes
/// and counts as missing every latency limit (it is reported by count).
class OpenLoop {
 public:
  OpenLoop(std::uint64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), period_ns_(1e9 / rate_per_s) {}

  [[nodiscard]] std::uint64_t due_ns(std::uint64_t i) const {
    return start_ns_ + static_cast<std::uint64_t>(std::llround(period_ns_ * static_cast<double>(i)));
  }

  /// Request i left the sender at `now_ns`; `accepted` is the system's answer.
  void sent(std::uint64_t i, std::uint64_t now_ns, bool accepted) {
    const std::uint64_t due = due_ns(i);
    const std::uint64_t late = now_ns > due ? now_ns - due : 0;
    max_late_ns_ = std::max(max_late_ns_, late);
    if (accepted)
      accepted_due_.push_back(due);
    else
      ++refused_;
  }

  /// The first `count` accepted requests have completed by `now_ns`.
  void completed(std::uint64_t count, std::uint64_t now_ns) {
    count = std::min<std::uint64_t>(count, accepted_due_.size());
    for (; done_ < count; ++done_) {
      const std::uint64_t due = accepted_due_[done_];
      latencies_us_.push_back(now_ns > due ? static_cast<double>(now_ns - due) * 1e-3 : 0.0);
    }
  }

  [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_due_.size(); }
  [[nodiscard]] std::uint64_t done() const noexcept { return done_; }
  [[nodiscard]] std::uint64_t refused() const noexcept { return refused_; }
  [[nodiscard]] double max_late_ms() const noexcept {
    return static_cast<double>(max_late_ns_) * 1e-6;
  }
  /// Due-to-completion latency of each completed request, in microseconds.
  [[nodiscard]] const std::vector<double>& latencies_us() const noexcept {
    return latencies_us_;
  }

 private:
  std::uint64_t start_ns_;
  double period_ns_;
  std::vector<std::uint64_t> accepted_due_;
  std::vector<double> latencies_us_;
  std::uint64_t done_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t max_late_ns_ = 0;
};

}  // namespace perfbench
