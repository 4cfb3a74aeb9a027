#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span log of one traced benchmark run. Spans are recorded by the
/// benchmark around each call it makes into a program layer; nothing inside
/// the program is instrumented. All spans of a run share the run's id.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    double start_s = 0;
    double end_s = 0;
  };

  /// A disabled log records nothing, so untraced runs pay one branch.
  SpanLog(bool enabled, std::string run_id);

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(const std::string& name);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children.
  double self_s(std::size_t index) const;

  /// Writes the log as JSON (run id, then one object per span with its
  /// name, parent, start, end and self time in seconds).
  bool write_json(const std::string& path) const;

 private:
  double now_s() const;

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const std::string& name)
      : log_(log), index_(log.open(name)) {}
  ~SpanScope() { log_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench
