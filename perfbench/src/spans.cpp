#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanLog::SpanLog(bool enabled, std::string run_id)
    : enabled_(enabled),
      run_id_(std::move(run_id)),
      epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanLog::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  // Scoped spans close innermost first.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanLog::self_s(std::size_t index) const {
  const Span& s = spans_[index];
  double self = s.end_s - s.start_s;
  for (const Span& c : spans_) {
    if (c.parent == static_cast<int>(index)) self -= c.end_s - c.start_s;
  }
  return self;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [", run_id_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.parent, s.start_s,
                 s.end_s, self_s(i));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
