// In-memory span log for the traced run. The benchmark opens a span around
// each call it makes into a library layer; spans nest through a stack, so
// each records its parent. Per-name totals are kept for every span;
// the spans themselves are kept up to a cap and written out at the end as
// Chrome trace JSON (chrome://tracing, Perfetto).
//
// Single-threaded: one benchmark thread opens and closes every span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

class SpanLog {
 public:
  using NameId = std::uint32_t;
  static constexpr std::uint32_t kNoSpan = UINT32_MAX;

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };

  explicit SpanLog(std::size_t max_kept_spans) : max_kept_(max_kept_spans) {}

  /// Interns a span name (once, outside timed loops).
  [[nodiscard]] NameId name(const std::string& span_name);

  /// RAII span; a null log makes it a no-op, so untraced code paths can
  /// hold a `SpanLog*` without branching.
  class Scope {
   public:
    Scope(SpanLog* log, NameId name) : log_(log) {
      if (log_ != nullptr) log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
  };

  [[nodiscard]] const Totals& totals(NameId name) const { return totals_[name]; }
  [[nodiscard]] std::size_t kept() const noexcept { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Writes the kept spans as Chrome trace JSON; false on an I/O error.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    NameId name;
    std::uint32_t parent;  ///< index into spans_, or kNoSpan
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct Open {
    NameId name;
    std::uint32_t index;  ///< slot in spans_, or kNoSpan once the cap is hit
    std::uint64_t start_ns;
  };

  void open(NameId name);
  void close();

  std::size_t max_kept_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::uint64_t dropped_ = 0;
};

/// `log->name(name)`, or 0 when there is no log (untraced runs).
[[nodiscard]] inline SpanLog::NameId span_name(SpanLog* log, const std::string& name) {
  return log != nullptr ? log->name(name) : 0;
}

}  // namespace perfbench
