// In-memory span recorder for the traced run. A span is a name, a start,
// an end and the span open when it began (its parent). Spans are kept in
// memory and written out once, at the end of the run; a span's self time
// is its duration minus the time its children cover.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  /// Opens a span under the innermost open one.
  void Begin(const std::string& name);
  /// Closes the innermost open span, optionally renaming it (a window's
  /// kind is known only once its call returned).
  void End(const std::string& rename = "");

  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Totals> TotalsByName() const;

  /// One line per span: index, parent, name, start and end (ns, relative
  /// to the first span). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder) {
    recorder_->Begin(name);
  }
  ~ScopedSpan() { recorder_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
