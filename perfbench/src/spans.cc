#include "spans.h"

#include <cstdio>

namespace perfbench {

void SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNanos();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
}

void SpanRecorder::End(const std::string& rename) {
  Span& span = spans_[static_cast<size_t>(open_.back())];
  open_.pop_back();
  span.end_ns = NowNanos();
  if (!rename.empty()) span.name = rename;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::TotalsByName()
    const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    Totals& entry = totals[spans_[i].name];
    ++entry.count;
    entry.total_ns += duration;
    entry.self_ns += duration - child_ns[i];
  }
  return totals;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "index,parent,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%zu,%d,%s,%lld,%lld\n", i, span.parent,
                 span.name.c_str(),
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
