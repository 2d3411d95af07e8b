// tempobench — one process per benchmark run: drives one workload end to
// end through the public tempo APIs, checks its outputs, and prints one
// JSON object of raw results for run.py.
//
//   tempobench --workload study-vista-desktop --seed 2008 --seconds 25
//              --trace 0 [--size full|tiny]
//   tempobench --probe        (prints its main-entry time; process start)
//
// Workloads (see README.md for why each exists):
//   study-linux-webserver   RunLinuxWebserver -> v3 file -> tracestat passes
//   study-vista-desktop     RunVistaDesktop   -> v3 file -> tracestat passes
//                           (both then run the fixed tempoquery set)
//   c10m-churn              C10MServer, 50k connections, hierarchical wheel,
//                           4 lanes, threaded
//   fleet-1000              RunFleet, 1000 desktops, in-process pipe hub
//
// The timed phase is repeated until --seconds have passed. With --trace 0
// nothing but iteration boundaries is timed. With --trace 1 plain and
// traced iterations alternate: traced ones record a span around every
// call into a layer and wrap each AnalysisPass in a timing decorator, and
// the difference of the two medians is the tracing overhead.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spans.h"
#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/latency.h"
#include "src/analysis/origins.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/provenance.h"
#include "src/analysis/query.h"
#include "src/analysis/summary.h"
#include "src/fleet/aggregator.h"
#include "src/fleet/host_sim.h"
#include "src/fleet/wire.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/trace/chunked.h"
#include "src/trace/file.h"
#include "src/trace/transport.h"
#include "src/workloads/linux_workloads.h"
#include "src/workloads/vista_workloads.h"

namespace tempobench {
namespace {

using namespace tempo;

constexpr size_t kAnalysisJobs = 4;
constexpr int kQueryWindows = 50;  // successive 2% time windows
// Trace files, reports and span files, relative to the working directory.
constexpr const char* kOutDir = ".bench_out";

struct Options {
  std::string workload;
  uint64_t seed = 2008;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

// --- small helpers -------------------------------------------------------

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, q in [0, 1] (numpy's default method).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || st.st_size < 0) {
    return 0;
  }
  return static_cast<uint64_t>(st.st_size);
}

// Current resident set of this process, in KiB.
uint64_t RssKib() {
  unsigned long long size = 0;
  unsigned long long resident = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm != nullptr) {
    if (std::fscanf(statm, "%llu %llu", &size, &resident) != 2) {
      resident = 0;
    }
    std::fclose(statm);
  }
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)) / 1024;
}

// Peak resident set of this process, in KiB.
uint64_t MaxRssKib() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), out);
  return std::fclose(out) == 0;
}

// Sum of every snapshot entry named `name` whose labels include `label`
// (any entry when `label` is empty).
double SumOf(const obs::MetricsSnapshot& snap, const std::string& name,
             const std::pair<std::string, std::string>& label = {}) {
  double total = 0.0;
  for (const obs::SnapshotEntry& e : snap.entries) {
    if (e.name != name) {
      continue;
    }
    if (!label.first.empty() &&
        std::find(e.labels.begin(), e.labels.end(), label) == e.labels.end()) {
      continue;
    }
    total += static_cast<double>(e.value);
  }
  return total;
}

double MaxOf(const obs::MetricsSnapshot& snap, const std::string& name) {
  double best = 0.0;
  for (const obs::SnapshotEntry& e : snap.entries) {
    if (e.name == name) {
      best = std::max(best, static_cast<double>(e.value));
    }
  }
  return best;
}

// Quantile of the union of every histogram named `name`, from the log2
// buckets (linear within a bucket, as obs::Histogram::Quantile does).
double MergedQuantile(const obs::MetricsSnapshot& snap, const std::string& name, double q) {
  std::map<uint64_t, uint64_t> counts;  // bucket upper bound -> samples
  uint64_t total = 0;
  for (const obs::SnapshotEntry& e : snap.entries) {
    if (e.name != name || e.kind != obs::SnapshotEntry::Kind::kHistogram) {
      continue;
    }
    uint64_t previous = 0;
    for (const auto& [upper, cumulative] : e.cumulative_buckets) {
      counts[upper] += cumulative - previous;
      total += cumulative - previous;
      previous = cumulative;
    }
  }
  if (total == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (const auto& [upper, count] : counts) {
    if (count == 0) {
      continue;
    }
    if (seen + static_cast<double>(count) >= target) {
      const double lower = upper <= 1 ? 0.0 : static_cast<double>(upper / 2);
      const double frac = (target - seen) / static_cast<double>(count);
      return lower + (static_cast<double>(upper) - lower) * frac;
    }
    seen += static_cast<double>(count);
  }
  return static_cast<double>(counts.rbegin()->first);
}

// --- verification --------------------------------------------------------

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// One timed iteration's measurements: "wall_s" plus whatever the workload
// reports, keyed by metric name.
using Values = std::map<std::string, double>;

// --- analysis instrumentation -------------------------------------------

// Busy time of one pass, summed over every worker's fork.
struct PassClock {
  std::atomic<int64_t> accumulate_ns{0};
  std::atomic<int64_t> merge_ns{0};
  std::atomic<int64_t> render_ns{0};
};

// Forwards every AnalysisPass call to the wrapped pass and times
// Accumulate (on the workers), Merge and Render.
class TimedPass final : public AnalysisPass {
 public:
  TimedPass(std::unique_ptr<AnalysisPass> inner, PassClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  const char* name() const override { return inner_->name(); }
  std::unique_ptr<AnalysisPass> Fork() const override {
    return std::make_unique<TimedPass>(inner_->Fork(), clock_);
  }
  void Accumulate(std::span<const TraceRecord> records) override {
    const int64_t t0 = NowNs();
    inner_->Accumulate(records);
    clock_->accumulate_ns += NowNs() - t0;
  }
  void Merge(AnalysisPass&& other) override {
    const int64_t t0 = NowNs();
    inner_->Merge(std::move(*static_cast<TimedPass&>(other).inner_));
    clock_->merge_ns += NowNs() - t0;
  }
  void Render(RenderSink& sink) override {
    const int64_t t0 = NowNs();
    inner_->Render(sink);
    clock_->render_ns += NowNs() - t0;
  }
  const Predicate* predicate() const override { return inner_->predicate(); }
  uint16_t fields() const override { return inner_->fields(); }

 private:
  std::unique_ptr<AnalysisPass> inner_;
  PassClock* clock_;
};

class StringSink : public RenderSink {
 public:
  void Section(const std::string&, const std::string& text) override { text_ += text; }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

// Metric labels of TracestatPasses, in order, named after their modules.
constexpr const char* kPassLabels[] = {"summary", "classify",   "histogram",
                                       "origins", "provenance", "latency"};

// The tracestat pass set, with tracestat's default options.
std::vector<std::unique_ptr<AnalysisPass>> TracestatPasses(const TraceChunkReader& reader,
                                                           const std::string& label) {
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<SummaryPass>(label));
  passes.push_back(std::make_unique<ClassifyPass>());
  HistogramOptions histogram;
  histogram.jiffy_quantise_kernel = true;
  passes.push_back(std::make_unique<HistogramPass>(histogram, true));
  OriginOptions origins;
  origins.min_percent = 0.5;
  passes.push_back(std::make_unique<OriginsPass>(&reader.callsites(), origins));
  passes.push_back(std::make_unique<ProvenancePass>(&reader.callsites()));
  passes.push_back(std::make_unique<LatencyPass>(&reader.callsites()));
  return passes;
}

// The fixed query set: set counts per pid over the whole trace, then set
// counts per call site over each successive 2% window of the run.
std::vector<QueryOptions> StudyQueries(SimDuration duration) {
  std::vector<QueryOptions> queries;
  QueryOptions per_pid;
  per_pid.predicate.op_mask = static_cast<uint8_t>(1u << static_cast<uint8_t>(TimerOp::kSet));
  per_pid.group_by = QueryGroupBy::kPid;
  queries.push_back(per_pid);
  for (int i = 0; i < kQueryWindows; ++i) {
    QueryOptions window = per_pid;
    window.group_by = QueryGroupBy::kCallsite;
    window.predicate.time_begin = i == 0 ? INT64_MIN : duration * i / kQueryWindows;
    window.predicate.time_end =
        i == kQueryWindows - 1 ? kNeverTime : duration * (i + 1) / kQueryWindows;
    queries.push_back(window);
  }
  return queries;
}

// Per-layer counters every workload reads from the obs registry.
void AddRegistryLayers(const obs::MetricsSnapshot& snap, Values* v) {
  (*v)["sim.events"] = SumOf(snap, "sim_events_executed");
  (*v)["sim.queue_depth_hwm"] = MaxOf(snap, "sim_event_queue_depth_hwm");
  (*v)["trace.records_logged"] = SumOf(snap, "trace_records_logged");
  (*v)["trace.records_dropped"] = SumOf(snap, "trace_records_dropped");
  (*v)["net.retransmits"] = SumOf(snap, "net_retransmits");
  (*v)["net.timeouts"] = SumOf(snap, "net_timeouts", {"fate", "fired"});
  (*v)["timer.ops"] = SumOf(snap, "timer_ops");
  (*v)["timer.op_cycles_p50"] = MergedQuantile(snap, "timer_op_cycles", 0.50);
  (*v)["timer.op_cycles_p99"] = MergedQuantile(snap, "timer_op_cycles", 0.99);
  (*v)["timer.service_lock_contended"] = SumOf(snap, "timer_service_lock_contended");
  const double hits = SumOf(snap, "timer_service_deadline_cache", {"result", "hit"});
  const double misses = SumOf(snap, "timer_service_deadline_cache", {"result", "miss"});
  (*v)["timer.service_deadline_cache_hit_ratio"] = Ratio(hits, hits + misses);
  const double skipped = SumOf(snap, "timer_service_advance_shards_skipped");
  const double advanced = SumOf(snap, "timer_service_advance_shards_advanced");
  (*v)["timer.service_shards_skipped_ratio"] = Ratio(skipped, skipped + advanced);
  (*v)["trace.relay_dropped"] = SumOf(snap, "trace_relay_dropped");
  (*v)["trace.relay_drainer_polls"] = SumOf(snap, "trace_relay_drainer_polls");
}

// --- the benchmark -------------------------------------------------------

class Bench {
 public:
  explicit Bench(Options options) : opt_(std::move(options)) {}

  bool Known() const {
    return IsStudy() || opt_.workload == "c10m-churn" || opt_.workload == "fleet-1000";
  }

  int Run();

 private:
  bool IsStudy() const {
    return opt_.workload == "study-linux-webserver" || opt_.workload == "study-vista-desktop";
  }

  Values Iterate(bool traced);
  Values StudyIteration(bool traced);
  Values C10MIteration(bool traced);
  Values FleetIteration(bool traced);
  // Once per run, after the timed loop.
  void StudyPostLoop(Values* layers);

  std::string TracePath() const { return std::string(kOutDir) + "/" + opt_.workload + ".trc"; }
  std::string TraceLabel() const { return opt_.workload + ".trc"; }
  SimDuration StudyDuration() const { return opt_.tiny ? kMinute : 30 * kMinute; }

  // Records the first iteration's digest and checks later ones against it.
  void ExpectSameDigest(const std::string& key, uint64_t digest) {
    auto [it, inserted] = digests_.emplace(key, digest);
    checks_.Expect(inserted || it->second == digest,
                   key + " differs between iterations of one run");
  }

  std::string HostJson() const;
  std::string ResultJson(const Values& e2e, const std::vector<Values>& plain,
                         const Values& layers, const Values& self_s) const;

  Options opt_;
  Checks checks_;
  SpanRecorder spans_;
  int iteration_ = 0;
  std::map<std::string, uint64_t> digests_;
  std::vector<double> setup_samples_;  // in-process set-up, seconds
  std::vector<double> round_ms_;       // fleet rounds of plain iterations
  uint64_t c10m_rss_growth_kib_ = 0;   // first c10m iteration only
  std::string report_text_;            // last 4-job tracestat report
  std::string query_text_;             // last query outputs
};

Values Bench::Iterate(bool traced) {
  spans_.set_enabled(traced);
  spans_.set_iteration(iteration_);
  obs::Registry::Global().Reset();
  Values v;
  if (IsStudy()) {
    v = StudyIteration(traced);
  } else if (opt_.workload == "c10m-churn") {
    v = C10MIteration(traced);
  } else {
    v = FleetIteration(traced);
  }
  if (traced) {
    const double wall = v["wall_s"];
    v["bench.unattributed_frac"] =
        Ratio(wall - spans_.TopLevelTotal(iteration_) + v["setup_in_spans_s"], wall);
  }
  v.erase("setup_in_spans_s");
  spans_.set_enabled(false);
  ++iteration_;
  return v;
}

Values Bench::StudyIteration(bool traced) {
  Values v;
  const std::string path = TracePath();
  const int64_t t0 = NowNs();

  // Record: the workload run, then the v3 file closed on disk.
  WorkloadOptions workload;
  workload.duration = StudyDuration();
  workload.seed = opt_.seed;
  uint64_t records = 0;
  bool written = false;
  {
    std::optional<TraceRun> run;
    {
      ScopedSpan span(spans_, "workloads.run");
      run = opt_.workload == "study-linux-webserver" ? RunLinuxWebserver(workload)
                                                     : RunVistaDesktop(workload);
    }
    records = run->records.size();
    {
      ScopedSpan span(spans_, "trace.write");
      TraceWriteOptions write;
      write.version = kTraceFileVersionColumnar;
      written = WriteTraceFile(path, run->records, run->callsites(), write);
    }
    ScopedSpan span(spans_, "workloads.teardown");
    run.reset();
  }
  const int64_t t_record = NowNs();

  // Analyze: open the file through the rendered tracestat report.
  std::string report;
  std::vector<std::pair<std::string, std::unique_ptr<PassClock>>> clocks;
  TraceReadError error = TraceReadError::kIo;
  std::optional<TraceChunkReader> reader;
  {
    ScopedSpan span(spans_, "trace.open");
    reader = TraceChunkReader::Open(path, &error);
  }
  checks_.Expect(written && reader.has_value(), "v3 trace file written and reopened");
  if (!reader.has_value()) {
    v["wall_s"] = Seconds(NowNs() - t0);
    return v;
  }
  std::vector<std::unique_ptr<AnalysisPass>> passes = TracestatPasses(*reader, TraceLabel());
  if (traced) {
    for (size_t i = 0; i < passes.size(); ++i) {
      clocks.emplace_back(kPassLabels[i], std::make_unique<PassClock>());
      passes[i] = std::make_unique<TimedPass>(std::move(passes[i]), clocks.back().second.get());
    }
  }
  PipelineOptions pipeline;
  pipeline.jobs = kAnalysisJobs;
  pipeline.stats_label = "tempobench";
  bool analyzed = false;
  {
    ScopedSpan span(spans_, "analysis.pipeline");
    analyzed = PipelineRunner(pipeline).Run(*reader, passes, &error);
  }
  {
    ScopedSpan span(spans_, "analysis.render");
    StringSink sink;
    for (auto& pass : passes) {
      pass->Render(sink);
    }
    report = sink.text();
  }
  const int64_t t_analyze = NowNs();

  // Query: the fixed projected query set, as tempoquery runs it.
  std::string query_text;
  uint64_t pid_sets = 0;
  uint64_t window_sets = 0;
  bool queried = true;
  PipelineStats query_stats;
  const std::vector<QueryOptions> queries = StudyQueries(StudyDuration());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::unique_ptr<AnalysisPass>> query_passes;
    query_passes.push_back(std::make_unique<QueryPass>(queries[q], &reader->callsites()));
    PipelineRunner runner(pipeline);
    {
      ScopedSpan span(spans_, "query.pipeline");
      queried = runner.Run(*reader, query_passes, &error) && queried;
    }
    ScopedSpan span(spans_, "query.render");
    StringSink sink;
    query_passes[0]->Render(sink);
    query_text += sink.text();
    uint64_t sets = 0;
    for (const auto& [key, group] : static_cast<QueryPass&>(*query_passes[0]).groups()) {
      sets += group.sets;
    }
    (q == 0 ? pid_sets : window_sets) += sets;
    query_stats.chunks += runner.stats().chunks;
    query_stats.chunks_skipped += runner.stats().chunks_skipped;
    query_stats.encoded_bytes += runner.stats().encoded_bytes;
  }
  const int64_t t_query = NowNs();

  // Verify: deterministic outputs, nothing lost, the query set adds up.
  const obs::MetricsSnapshot snap = obs::Registry::Global().TakeSnapshot();
  {
    ScopedSpan span(spans_, "bench.verify");
    checks_.Expect(analyzed, "tracestat passes read the whole file");
    checks_.Expect(queried, "query set read the whole file");
    checks_.Expect(reader->record_count() == records && records > 0,
                   "file holds every recorded record");
    checks_.Expect(SumOf(snap, "trace_records_dropped") == 0.0, "no trace records dropped");
    checks_.Expect(pid_sets > 0 && pid_sets == window_sets,
                   "per-window set counts add up to the per-pid total");
    ExpectSameDigest("report", Fnv1a(report));
    ExpectSameDigest("query", Fnv1a(query_text));
  }
  const int64_t t_end = NowNs();

  const uint64_t file_bytes = FileSize(path);
  v["wall_s"] = Seconds(t_end - t0);
  v["record_s"] = Seconds(t_record - t0);
  v["analyze_s"] = Seconds(t_analyze - t_record);
  v["query_s"] = Seconds(t_query - t_analyze);
  v["trace_bytes_per_record"] =
      Ratio(static_cast<double>(file_bytes), static_cast<double>(records));
  v["events"] = static_cast<double>(records);
  if (traced) {
    AddRegistryLayers(snap, &v);
    const double run_s = spans_.Total(iteration_, "workloads.run");
    v["workloads.run_s"] = run_s;
    v["sim.ns_per_event"] = Ratio(run_s * 1e9, v["sim.events"]);
    v["timer.ns_per_op"] = Ratio(run_s * 1e9, v["timer.ops"]);
    v["trace.encode_write_s"] = spans_.Total(iteration_, "trace.write");
    v["trace.file_bytes"] = static_cast<double>(file_bytes);
    v["trace.open_s"] = spans_.Total(iteration_, "trace.open");
    v["trace.chunks_decoded"] = static_cast<double>(query_stats.chunks);
    v["trace.chunks_skipped"] = static_cast<double>(query_stats.chunks_skipped);
    v["trace.bytes_decoded"] = static_cast<double>(query_stats.encoded_bytes);
    v["trace.skip_ratio"] =
        Ratio(static_cast<double>(query_stats.chunks_skipped),
              static_cast<double>(query_stats.chunks + query_stats.chunks_skipped));
    int64_t merge_ns = 0;
    int64_t render_ns = 0;
    for (const auto& [name, clock] : clocks) {
      v["analysis." + name + ".busy_s"] = Seconds(clock->accumulate_ns);
      merge_ns += clock->merge_ns;
      render_ns += clock->render_ns;
    }
    v["analysis.merge_s"] = Seconds(merge_ns);
    v["analysis.render_s"] = Seconds(render_ns);
    v["analysis.pipeline_s"] = spans_.Total(iteration_, "analysis.pipeline");
    v["analysis.query_pipeline_s"] = spans_.Total(iteration_, "query.pipeline");
  }
  report_text_ = std::move(report);
  query_text_ = std::move(query_text);
  return v;
}

void Bench::StudyPostLoop(Values* layers) {
  std::optional<TraceChunkReader> reader = TraceChunkReader::Open(TracePath());
  if (!reader.has_value()) {
    checks_.Expect(false, "trace file reopens after the run");
    return;
  }
  // The report is identical at 1 and 4 jobs (the structural check that
  // needs no recorded digest).
  spans_.set_enabled(opt_.trace);
  spans_.set_iteration(iteration_);
  std::vector<std::unique_ptr<AnalysisPass>> passes = TracestatPasses(*reader, TraceLabel());
  PipelineOptions serial;
  serial.jobs = 1;
  serial.stats_label = "tempobench";
  bool ok = false;
  {
    ScopedSpan span(spans_, "analysis.pipeline_1job");
    ok = PipelineRunner(serial).Run(*reader, passes);
  }
  StringSink sink;
  for (auto& pass : passes) {
    pass->Render(sink);
  }
  checks_.Expect(ok && sink.text() == report_text_, "tracestat report identical at 1 and 4 jobs");
  if (!opt_.trace) {
    return;
  }
  const double one_job = spans_.Total(iteration_, "analysis.pipeline_1job");
  (*layers)["analysis.parallel_efficiency"] =
      Ratio(one_job, static_cast<double>(kAnalysisJobs) * (*layers)["analysis.pipeline_s"]);

  // Serial decode scans: every field, then the query set's projection.
  const uint16_t projected =
      kFieldTimestamp | kFieldTimeout | kFieldPid | kFieldOp | kFieldCallsite;
  const std::pair<const char*, uint16_t> scans[] = {
      {"trace.decode_ns_per_record", kAllTraceFields},
      {"trace.projected_decode_ns_per_record", projected}};
  for (const auto& [metric, mask] : scans) {
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
      TraceChunkReader::Cursor cursor = reader->MakeCursor();
      uint64_t decoded = 0;
      const int64_t t0 = NowNs();
      for (size_t c = 0; c < reader->chunk_count(); ++c) {
        decoded += cursor.Read(c, mask).size();
      }
      const int64_t ns = NowNs() - t0;
      checks_.Expect(cursor.ok() && decoded == reader->record_count(),
                     "serial cursor scan decodes every record");
      samples.push_back(Ratio(static_cast<double>(ns), static_cast<double>(decoded)));
    }
    (*layers)[metric] = Median(samples);
  }
  spans_.set_enabled(false);
}

Values Bench::C10MIteration(bool traced) {
  Values v;
  C10MOptions options;
  // 50k connections keep the timer working set near the caches: at 200k
  // the 4 lanes are memory-bound and their iteration times swing 2x with
  // the load of other tenants on a shared host.
  options.connections = opt_.tiny ? 5'000 : 50'000;
  options.lanes = 4;
  options.queue = "hierarchical_wheel";
  options.seed = opt_.seed;
  const uint64_t rss_before = RssKib();

  const int64_t t0 = NowNs();
  std::unique_ptr<C10MServer> server;
  {
    ScopedSpan span(spans_, "net.construct");
    server = std::make_unique<C10MServer>(options);
  }
  const int64_t t1 = NowNs();
  C10MReport report;
  {
    ScopedSpan span(spans_, "net.run_threaded");
    report = server->RunThreaded();
  }
  TimerService& service = server->service();
  service.PublishStats();
  const double ops = static_cast<double>(service.set_count() + service.reschedule_count() +
                                         service.cancel_count() + service.expire_count());
  {
    ScopedSpan span(spans_, "net.teardown");
    server.reset();
  }
  {
    ScopedSpan span(spans_, "bench.verify");
    checks_.Expect(report.final_live_timers == 0, "no timer left armed after teardown");
    checks_.Expect(report.teardown_canceled == report.teardown_collected,
                   "teardown cancels every collected timer");
    checks_.Expect(report.peak_live_timers >= 2 * report.connections,
                   "peak live timers >= 2x connections");
    ExpectSameDigest("fingerprint", report.fingerprint);
  }
  const int64_t t_end = NowNs();
  if (iteration_ == 0) {
    c10m_rss_growth_kib_ = MaxRssKib() - rss_before;
  }

  setup_samples_.push_back(Seconds(t1 - t0));
  const double wall = Seconds(t_end - t1);
  v["wall_s"] = wall;
  v["events"] = ops;
  v["setup_in_spans_s"] = Seconds(t1 - t0);
  if (traced) {
    AddRegistryLayers(obs::Registry::Global().TakeSnapshot(), &v);
    v["timer.ns_per_op"] = Ratio(wall * 1e9, ops);
    v["timer.bytes_per_live_timer"] =
        Ratio(static_cast<double>(c10m_rss_growth_kib_) * 1024.0,
              static_cast<double>(report.peak_live_timers));
    v["net.construct_s"] = Seconds(t1 - t0);
    const double fires = static_cast<double>(report.retransmits_fired + report.keepalive_probes +
                                             report.idle_closures + report.delayed_acks_fired +
                                             report.stale_fires);
    v["net.stale_fire_ratio"] = Ratio(static_cast<double>(report.stale_fires), fires);
    v["net.retransmits"] += static_cast<double>(report.retransmits_fired);
    v["workloads.run_s"] = spans_.Total(iteration_, "net.run_threaded");
  }
  return v;
}

// Counts what one host publishes, and keeps its last (cumulative) frame so
// the host's eviction totals can be read once it closes.
struct FleetTally {
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> window_evictions{0};
  std::atomic<uint64_t> classifier_evictions{0};
  std::atomic<uint64_t> undecodable{0};
};

class CountingSink : public ByteSink {
 public:
  CountingSink(std::unique_ptr<ByteSink> inner, FleetTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  bool Write(const uint8_t* data, size_t size) override {
    tally_->bytes += size;
    ++tally_->frames;
    last_frame_.assign(data, data + size);
    return inner_->Write(data, size);
  }

  void Close() override {
    fleet::FrameDecoder decoder;
    decoder.Feed(last_frame_.data(), last_frame_.size());
    fleet::HostSummary summary;
    fleet::FleetReadError error = fleet::FleetReadError::kTruncated;
    if (decoder.Next(&summary, &error) == fleet::FrameDecoder::Status::kFrame) {
      tally_->window_evictions += summary.windows_evicted;
      tally_->classifier_evictions += summary.classifier_evictions;
    } else {
      ++tally_->undecodable;
    }
    inner_->Close();
  }

 private:
  std::unique_ptr<ByteSink> inner_;
  FleetTally* tally_;
  std::vector<uint8_t> last_frame_;
};

Values Bench::FleetIteration(bool traced) {
  Values v;
  const size_t hosts = opt_.tiny ? 20 : 1000;
  const int64_t t0 = NowNs();
  fleet::FleetAggregator aggregator;
  fleet::FleetCollector collector(&aggregator);
  InProcessPipeHub hub(collector.Handler());
  FleetTally tally;

  // Round boundaries, as steady-clock times: [last connect, after_round 1
  // entry, after_round 2 entry, ...], and each round's drain time.
  int64_t last_connect = t0;
  std::vector<int64_t> round_starts;
  std::vector<int64_t> drain_ends;
  fleet::FleetRunOptions run;
  run.hosts = hosts;
  run.duration = 8 * kSecond;
  run.publish_period = 500 * kMillisecond;
  run.seed = opt_.seed;
  run.threads = 4;
  run.connect = [&](const std::string& host) -> std::unique_ptr<ByteSink> {
    std::unique_ptr<ByteSink> sink = hub.Connect(host);
    if (traced) {
      sink = std::make_unique<CountingSink>(std::move(sink), &tally);
    }
    last_connect = NowNs();
    return sink;
  };
  run.after_round = [&](SimTime) {
    const int64_t t_in = NowNs();
    spans_.Add("fleet.hosts", drain_ends.empty() ? last_connect : drain_ends.back(), t_in);
    round_starts.push_back(t_in);
    hub.Drain();
    drain_ends.push_back(NowNs());
    spans_.Add("fleet.collect", t_in, drain_ends.back());
  };
  const fleet::FleetRunResult result = fleet::RunFleet(run);
  const int64_t t_return = NowNs();
  spans_.Add("fleet.teardown", drain_ends.empty() ? last_connect : drain_ends.back(), t_return);
  spans_.Add("fleet.setup", t0, last_connect);

  fleet::FleetView view;
  uint64_t bursting = 0;
  {
    ScopedSpan span(spans_, "fleet.final_drain");
    hub.Drain();
  }
  {
    ScopedSpan span(spans_, "fleet.view");
    aggregator.SyncObs();
    view = aggregator.TakeView(10);
    bursting = aggregator.HostsWithBurst("outlook.exe", 5000.0);
  }
  {
    ScopedSpan span(spans_, "bench.verify");
    const uint64_t want = hosts;
    checks_.Expect(view.hosts_total == want && view.hosts_live == want, "every host is live");
    checks_.Expect(view.clean(), "fleet view is clean");
    checks_.Expect(view.decode_errors_total == 0 && view.sequence_gaps_total == 0 &&
                       view.dirty_closes_total == 0 && view.relay_dropped_total == 0,
                   "no decode errors, sequence gaps, dirty closes or relay drops");
    checks_.Expect(static_cast<double>(bursting) >= 0.95 * static_cast<double>(want),
                   "outlook.exe bursts on >= 95% of hosts");
    checks_.Expect(view.frames_total == result.frames &&
                       result.frames == want * round_starts.size(),
                   "every published frame reached the aggregator");
    ExpectSameDigest("fleet_records", view.records_total);
  }
  const int64_t t_end = NowNs();

  setup_samples_.push_back(Seconds(last_connect - t0));
  std::vector<double> rounds;
  for (size_t i = 0; i < round_starts.size(); ++i) {
    const int64_t previous = i == 0 ? last_connect : round_starts[i - 1];
    rounds.push_back(Seconds(round_starts[i] - previous) * 1e3);
  }
  if (!traced) {
    round_ms_.insert(round_ms_.end(), rounds.begin(), rounds.end());
  }
  double collect = 0.0;
  for (size_t i = 0; i < round_starts.size(); ++i) {
    collect += Seconds(drain_ends[i] - round_starts[i]);
  }
  const double wall = Seconds(t_end - last_connect);
  v["wall_s"] = wall;
  v["events"] = static_cast<double>(result.records);
  v["setup_in_spans_s"] = Seconds(last_connect - t0);
  if (traced) {
    AddRegistryLayers(obs::Registry::Global().TakeSnapshot(), &v);
    checks_.Expect(tally.undecodable == 0, "every host's last frame decodes");
    v["workloads.run_s"] = Seconds(t_return - last_connect);
    v["fleet.collect_s"] = collect;
    double round_total = 0.0;
    for (const double r : rounds) {
      round_total += r * 1e-3;
    }
    v["fleet.hosts_s"] = round_total - collect;
    v["fleet.frames"] = static_cast<double>(tally.frames);
    v["fleet.frame_bytes"] = static_cast<double>(tally.bytes);
    v["fleet.decode_errors"] = static_cast<double>(view.decode_errors_total);
    v["fleet.sequence_gaps"] = static_cast<double>(view.sequence_gaps_total);
    v["live.records"] = static_cast<double>(result.records);
    v["live.window_evictions"] = static_cast<double>(tally.window_evictions);
    v["live.classifier_evictions"] = static_cast<double>(tally.classifier_evictions);
    v["trace.relay_dropped"] = static_cast<double>(view.relay_dropped_total);
  }
  return v;
}

int Bench::Run() {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opt_.seconds * 1e9);
  std::vector<Values> plain;
  std::vector<Values> traced;
  uint64_t peak_rss_kib = 0;
  // A traced run starts with a plain warm-up iteration that neither median
  // counts (it pays the process's first page faults), then runs traced and
  // plain iterations in T P P T order, so an effect that alternates between
  // successive iterations (allocator arenas handed to fresh threads) falls
  // on both modes alike.
  for (;;) {
    const int slot = (iteration_ - 1) % 4;
    const bool trace_this = opt_.trace && iteration_ > 0 && (slot == 0 || slot == 3);
    Values v = Iterate(trace_this);
    if (opt_.trace && iteration_ == 1) {
      round_ms_.clear();
    } else {
      (trace_this ? traced : plain).push_back(std::move(v));
    }
    if (iteration_ == 1) {
      // Later iterations reuse the allocator's free lists, so the first
      // one's high-water mark is the workload's own.
      peak_rss_kib = MaxRssKib();
    }
    const bool have_both = !opt_.trace || (!plain.empty() && !traced.empty());
    if (NowNs() >= deadline && have_both) {
      break;
    }
  }

  auto median_of = [](const std::vector<Values>& runs, const std::string& key) {
    std::vector<double> samples;
    for (const Values& v : runs) {
      const auto it = v.find(key);
      if (it != v.end()) {
        samples.push_back(it->second);
      }
    }
    return Median(samples);
  };

  Values e2e;
  for (const char* key : {"wall_s", "record_s", "analyze_s", "query_s", "trace_bytes_per_record"}) {
    e2e[key] = median_of(plain, key);
  }
  std::vector<double> ns_per_event;
  for (const Values& v : plain) {
    ns_per_event.push_back(Ratio(v.at("wall_s") * 1e9, v.at("events")));
  }
  e2e["ns_per_timer_event"] = Median(ns_per_event);
  e2e["round_ms_p50"] = Median(round_ms_);
  e2e["round_ms_p90"] = Percentile(round_ms_, 0.90);
  e2e["round_samples"] = static_cast<double>(round_ms_.size());
  e2e["iterations"] = static_cast<double>(plain.size());
  e2e["inproc_setup_s"] = Median(setup_samples_);

  Values layers;
  if (opt_.trace) {
    std::set<std::string> keys;
    for (const Values& v : traced) {
      for (const auto& [key, value] : v) {
        keys.insert(key);
      }
    }
    for (const std::string& key : keys) {
      layers[key] = median_of(traced, key);
    }
    const double plain_wall = e2e["wall_s"];
    layers["bench.tracing_overhead_frac"] =
        Ratio(median_of(traced, "wall_s") - plain_wall, plain_wall);
    layers["bench.traced_iterations"] = static_cast<double>(traced.size());
  }
  if (IsStudy()) {
    StudyPostLoop(&layers);
    WriteText(std::string(kOutDir) + "/" + opt_.workload + ".report.txt", report_text_);
    WriteText(std::string(kOutDir) + "/" + opt_.workload + ".query.txt", query_text_);
  }
  e2e["peak_rss_mb"] = static_cast<double>(peak_rss_kib) / 1024.0;

  const std::string run_id = opt_.workload + "-seed" + std::to_string(opt_.seed) + "-" +
                             std::to_string(start);
  if (opt_.trace) {
    const std::string path = std::string(kOutDir) + "/" + opt_.workload + "-seed" +
                             std::to_string(opt_.seed) + ".trace.json";
    checks_.Expect(spans_.WriteChromeTrace(path, opt_.workload, run_id, HostJson()),
                   "span file written");
  }
  std::printf("%s\n", ResultJson(e2e, plain, layers, opt_.trace ? spans_.SelfSeconds()
                                                         : Values{})
                          .c_str());
  return 0;
}

std::string Bench::HostJson() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\",\"mode\":\"%s\","
                "\"seed\":%" PRIu64 ",\"workload\":\"%s\",\"size\":\"%s\"}",
                std::thread::hardware_concurrency(), TEMPOBENCH_BUILD_TYPE, TEMPOBENCH_COMPILER,
                opt_.trace ? "traced" : "plain", opt_.seed, opt_.workload.c_str(),
                opt_.tiny ? "tiny" : "full");
  return buf;
}

std::string JsonNumbers(const Values& values) {
  std::string out = "{";
  char buf[160];
  for (const auto& [name, value] : values) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", out.size() > 1 ? "," : "", name.c_str(),
                  std::isfinite(value) ? value : 0.0);
    out += buf;
  }
  return out + "}";
}

std::string Bench::ResultJson(const Values& e2e, const std::vector<Values>& plain,
                              const Values& layers, const Values& self_s) const {
  std::string out = "{\"host\":" + HostJson();
  out += ",\"e2e\":" + JsonNumbers(e2e);
  out += ",\"plain_iterations\":[";
  for (size_t i = 0; i < plain.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonNumbers(plain[i]);
  }
  out += "],\"layers\":" + JsonNumbers(layers);
  out += ",\"self_s\":" + JsonNumbers(self_s);
  out += ",\"digests\":{";
  bool first = true;
  for (const auto& [key, digest] : digests_) {
    out += (first ? "\"" : ",\"") + key + "\":\"" + Hex(digest) + "\"";
    first = false;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "},\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"failures\":[",
                checks_.attempted(), checks_.failed());
  out += buf;
  for (size_t i = 0; i < checks_.failures().size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + checks_.failures()[i] + "\"";
  }
  return out + "]}";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        return false;
      }
      opt->tiny = value == "tiny";
    } else {
      return false;
    }
  }
  return !opt->workload.empty();
}

}  // namespace
}  // namespace tempobench

int main(int argc, char** argv) {
  const int64_t entry = tempobench::NowNs();
  if (argc == 2 && std::strcmp(argv[1], "--probe") == 0) {
    std::printf("{\"main_entry_ns\":%" PRId64 "}\n", entry);
    return 0;
  }
  tempobench::Options options;
  if (!tempobench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload W [--seed N] [--seconds S] [--trace 0|1] "
                 "[--size full|tiny]\n       %s --probe\n",
                 argv[0], argv[0]);
    return 2;
  }
  tempobench::Bench bench(options);
  if (!bench.Known()) {
    std::fprintf(stderr, "error: unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  std::printf("{\"main_entry_ns\":%" PRId64 "}\n", entry);
  std::fflush(stdout);
  return bench.Run();
}
