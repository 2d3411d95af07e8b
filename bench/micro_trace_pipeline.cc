// micro_trace_pipeline — parallel streaming analysis throughput.
//
// Generates a large synthetic trace (10M records by default; quick and
// smoke runs drop to 1M), writes it as a chunked v2 file, then runs the
// full tracestat pass set over the file with 1, 2 and 4 workers. For every
// worker count the rendered report must be byte-identical to the serial
// one (the identity gate, the ordered-merge guarantee); on machines with
// 4+ cores the 4-way run must be at least 3x faster than serial (the
// speedup gate). Results go to BENCH_trace_pipeline.json in the working
// directory.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bench/synthetic_trace.h"
#include "src/analysis/classify.h"
#include "src/analysis/histogram.h"
#include "src/analysis/origins.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/provenance.h"
#include "src/analysis/summary.h"
#include "src/trace/chunked.h"
#include "src/trace/codec.h"
#include "src/trace/file.h"

namespace tempo {
namespace {

constexpr double kSpeedupThreshold = 3.0;
constexpr size_t kGateJobs = 4;

// The tracestat pass set (with a blame window), so the bench measures the
// tool's real workload.
std::vector<std::unique_ptr<AnalysisPass>> MakePasses(const CallsiteRegistry& callsites) {
  std::vector<std::unique_ptr<AnalysisPass>> passes;
  passes.push_back(std::make_unique<SummaryPass>("bench"));
  passes.push_back(std::make_unique<ClassifyPass>());
  passes.push_back(std::make_unique<HistogramPass>());
  OriginOptions origin_options;
  origin_options.min_percent = 0.5;
  passes.push_back(std::make_unique<OriginsPass>(&callsites, origin_options));
  passes.push_back(std::make_unique<ProvenancePass>(&callsites));
  passes.push_back(std::make_unique<BlamePass>(&callsites, 10 * kSecond, kMinute));
  return passes;
}

class StringSink : public RenderSink {
 public:
  void Section(const std::string& key, const std::string& text) override {
    (void)key;
    report += text;
  }
  std::string report;
};

struct RunResult {
  size_t jobs = 0;
  double millis = 0;
  double speedup = 1.0;
  bool identical = true;
};

}  // namespace
}  // namespace tempo

int main() {
  using namespace tempo;
  bench::Harness harness("micro_trace_pipeline", "BENCH_trace_pipeline.json");
  const bool quick = !harness.full();
  const size_t record_count = quick ? 1'000'000 : 10'000'000;
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("micro_trace_pipeline: %zu records, %u cores%s\n", record_count, cores,
              quick ? " (quick)" : "");

  CallsiteRegistry callsites;
  const auto sites = MakeSites(&callsites);
  const std::string path = "bench_trace_pipeline.trc";
  uint64_t file_bytes = 0;
  {
    std::printf("generating synthetic trace...\n");
    auto records = GenerateTrace(record_count, sites);
    std::printf("writing %s...\n", path.c_str());
    TraceWriteOptions options;  // chunked v2, default chunk size
    if (!WriteTraceFile(path, records, callsites, options)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
  }  // the records vector dies here: from now on the trace is streamed

  TraceReadError error = TraceReadError::kIo;
  const auto reader = TraceChunkReader::Open(path, &error);
  if (!reader.has_value()) {
    std::fprintf(stderr, "error: cannot reopen %s: %s\n", path.c_str(),
                 TraceReadErrorName(error));
    return 1;
  }
  file_bytes = reader->record_count() * kEncodedRecordSize;  // payload only

  std::vector<RunResult> runs;
  std::string serial_report;
  for (const size_t jobs : {size_t{1}, size_t{2}, size_t{4}}) {
    PipelineOptions options;
    options.jobs = jobs;
    options.stats_label = "bench";
    PipelineRunner runner(options);
    auto passes = MakePasses(reader->callsites());
    const auto t0 = std::chrono::steady_clock::now();
    if (!runner.Run(*reader, passes, &error)) {
      std::fprintf(stderr, "error: pipeline run failed: %s\n", TraceReadErrorName(error));
      return 1;
    }
    const auto t1 = std::chrono::steady_clock::now();
    StringSink sink;
    for (const auto& pass : passes) {
      pass->Render(sink);
    }
    RunResult result;
    result.jobs = jobs;
    result.millis =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() / 1000.0;
    if (jobs == 1) {
      serial_report = sink.report;
    } else {
      result.identical = sink.report == serial_report;
    }
    result.speedup = runs.empty() ? 1.0 : runs.front().millis / result.millis;
    std::printf("  jobs=%zu  %10.1f ms  speedup %.2fx  output %s\n", jobs, result.millis,
                result.speedup, result.identical ? "identical" : "DIFFERS");
    runs.push_back(result);
  }
  std::remove(path.c_str());

  bool outputs_ok = true;
  double gate_speedup = 0;
  for (const RunResult& r : runs) {
    outputs_ok = outputs_ok && r.identical;
    if (r.jobs == kGateJobs) {
      gate_speedup = r.speedup;
    }
  }
  harness.AddGate("identity", bench::Gate::Check(outputs_ok));
  bench::Gate speedup = bench::Gate::Compare(gate_speedup >= kSpeedupThreshold,
                                             kSpeedupThreshold, gate_speedup);
  if (cores < kGateJobs) {
    speedup.Skip("only " + std::to_string(cores) + " hardware threads");
  }
  harness.AddGate("speedup", speedup);

  harness.Set("records", record_count);
  harness.Set("payload_bytes", file_bytes);
  harness.Set("chunk_records", kDefaultChunkRecords);
  harness.Set("gate_jobs", kGateJobs);
  obs::JsonValue& rows = harness.Set("runs", obs::JsonValue::Array());
  for (const RunResult& r : runs) {
    obs::JsonValue& row = rows.Push(obs::JsonValue::Object());
    row.Set("jobs", r.jobs);
    row.Set("millis", r.millis);
    row.Set("speedup", r.speedup);
    row.Set("identical", r.identical);
  }
  return harness.Finish();
}
