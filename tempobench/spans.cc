#include "spans.h"

#include <chrono>
#include <cstdio>

namespace tempobench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_;
  span.iteration = iteration_;
  spans_.push_back(std::move(span));
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void SpanRecorder::End(int index) {
  if (index < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

void SpanRecorder::Add(const std::string& name, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) {
    return;
  }
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_;
  span.iteration = iteration_;
  spans_.push_back(std::move(span));
}

double SpanRecorder::Total(int iteration, const std::string& name) const {
  int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.iteration == iteration && span.name == name) {
      ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

double SpanRecorder::TopLevelTotal(int iteration) const {
  int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.iteration == iteration && span.parent < 0) {
      ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path, const std::string& workload,
                                    const std::string& run_id,
                                    const std::string& other_data) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[\n",
               other_data.c_str());
  std::fprintf(out,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"tempobench %s\"}}",
               workload.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"tempobench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"iteration\":%d,\"workload\":\"%s\",\"run_id\":\"%s\"}}",
                 span.name.c_str(), static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i, span.parent,
                 span.iteration, workload.c_str(), run_id.c_str());
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace tempobench
