#include "spans.h"

#include <cstdio>

#include "util/check.h"

namespace perfbench {

namespace {

std::int64_t since(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

}  // namespace

int Tracer::open(const char* name, const char* layer) {
  SpanRecord s;
  s.name = name;
  s.layer = layer;
  s.parent = current_;
  s.start_ns = since(origin_);
  spans_.push_back(s);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  BSIO_CHECK_MSG(id == current_, "spans must close innermost first");
  spans_[id].end_ns = since(origin_);
  current_ = spans_[id].parent;
}

std::map<std::string, double> Tracer::layer_self_seconds(
    std::size_t begin, std::size_t end) const {
  std::vector<double> self(end - begin, 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    self[i - begin] += seconds(spans_[i]);
    const int p = spans_[i].parent;
    if (p >= static_cast<int>(begin))
      self[static_cast<std::size_t>(p) - begin] -= seconds(spans_[i]);
  }
  std::map<std::string, double> out;
  for (std::size_t i = begin; i < end; ++i)
    out[spans_[i].layer] += self[i - begin];
  return out;
}

std::map<std::string, double> Tracer::name_seconds(std::size_t begin,
                                                  std::size_t end) const {
  std::map<std::string, double> out;
  for (std::size_t i = begin; i < end; ++i)
    out[spans_[i].name] += seconds(spans_[i]);
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
