// Wall-clock spans the benchmark places around its own calls into each bsio
// layer. Spans live in memory (one vector, appended in open order) and are
// written out once, at the end of the process, as Chrome trace-event JSON.
//
// A disabled Tracer records nothing: a Span then costs one branch, so the
// untraced runs time the program, not the tracer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";   // string literal
  const char* layer = "";  // bsio module name, or "bench" for own code
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
};

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Spans nest strictly: close() must name the innermost open span.
  int open(const char* name, const char* layer);
  void close(int id);

  static double seconds(const SpanRecord& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  // Self seconds per layer over the spans [begin, end): each span's
  // duration minus the time its direct children cover (children of one
  // span never overlap, since every span is opened on this thread).
  std::map<std::string, double> layer_self_seconds(std::size_t begin,
                                                   std::size_t end) const;

  // Summed duration per span name over the spans [begin, end).
  std::map<std::string, double> name_seconds(std::size_t begin,
                                             std::size_t end) const;

  // Chrome trace-event JSON ("X" complete events, microseconds), readable
  // by chrome://tracing and Perfetto. Returns false when the file cannot
  // be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  int current_ = -1;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name, const char* layer)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name, layer) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
