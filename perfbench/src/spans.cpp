#include "spans.h"

#include <fstream>

namespace perfbench {

SpanLog::NameId SpanLog::name(const std::string& span_name) {
  for (NameId i = 0; i < names_.size(); ++i)
    if (names_[i] == span_name) return i;
  names_.push_back(span_name);
  totals_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void SpanLog::open(NameId name) {
  std::uint32_t index = kNoSpan;
  const std::uint32_t parent = stack_.empty() ? kNoSpan : stack_.back().index;
  if (spans_.size() < max_kept_) {
    index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, parent, 0, 0});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, index, now_ns()});
}

void SpanLog::close() {
  const std::uint64_t end = now_ns();
  const Open top = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end - top.start_ns;
  Totals& t = totals_[top.name];
  ++t.count;
  t.total_ns += duration;
  if (top.index != kNoSpan) {
    spans_[top.index].start_ns = top.start_ns;
    spans_[top.index].end_ns = end;
  }
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":" << dropped_
      << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << names_[s.name]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":";
    if (s.parent == kNoSpan)
      out << "null";
    else
      out << s.parent;
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
