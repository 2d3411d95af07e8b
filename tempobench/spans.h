// In-memory spans for the traced benchmark run.
//
// Every span is a call into one tempo layer made from the benchmark's own
// code: a name, a steady-clock start and end, the span that was open when
// it began (its parent), and the iteration it belongs to. Spans are only
// ever opened on the benchmark's main thread, so the recorder needs no
// locking. At exit the spans are written as Chrome trace-event JSON, which
// Perfetto opens next to a `tempotrace` export.

#ifndef TEMPOBENCH_SPANS_H_
#define TEMPOBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tempobench {

// Nanoseconds on the monotonic clock (CLOCK_MONOTONIC on Linux, the clock
// Python's time.monotonic_ns reads, so process start can be measured
// across the exec boundary).
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for top level
  int iteration = 0;
};

class SpanRecorder {
 public:
  // A disabled recorder records nothing; Begin returns -1.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_iteration(int iteration) { iteration_ = iteration; }

  // Opens a span under the currently open one; End closes it.
  int Begin(const std::string& name);
  void End(int index);

  // Adds an already-measured top-level (or child of the open span) span.
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Summed durations of the spans of `iteration` named `name`, in seconds.
  double Total(int iteration, const std::string& name) const;
  // Summed durations of the top-level spans of `iteration`, in seconds.
  double TopLevelTotal(int iteration) const;
  // Per span name: duration minus the part its direct children cover,
  // summed over every span of that name, in seconds.
  std::map<std::string, double> SelfSeconds() const;

  // Writes the spans as Chrome trace-event JSON. `other_data` is a JSON
  // object copied verbatim into the file's "otherData".
  bool WriteChromeTrace(const std::string& path, const std::string& workload,
                        const std::string& run_id, const std::string& other_data) const;

 private:
  bool enabled_ = false;
  int iteration_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

// RAII span on a recorder; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name)
      : recorder_(recorder), index_(recorder.Begin(name)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

}  // namespace tempobench

#endif  // TEMPOBENCH_SPANS_H_
