// micro_live_overhead — per-record cost of the live analysis layer on the
// relay drain path.
//
// The live observatory (src/live) taps the drainer's emit callback, so its
// per-record cost is paid once per traced event, on the consumer side. The
// paper budgets 236 cycles for the *producer* side logging cost; the drain
// side has no paper number, but it must stay cheap enough that one
// consumer thread keeps up with every producer. This bench replays the
// same deterministic synthetic stream through the drain path twice — once
// into a sink that only counts records, once into the full LiveAnalyzer
// (rate rings + burst detector + online classifier) — and charges the
// difference to the analyzer.
//
// Gates: overhead — the analyzer must add at most kGateCyclesPerRecord
// cycles per record (generous: the hot path is two hash probes, a ring
// increment and a classifier transition); lossless — both drains and the
// analyzer see every record. Results go to BENCH_live.json.
//
// Quick and smoke runs shrink the stream for CI; the overhead gate still
// runs (it is a per-record number, not a throughput number).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/drain_path.h"
#include "bench/harness.h"
#include "src/analysis/rates.h"
#include "src/live/live_analyzer.h"

namespace tempo {
namespace {

constexpr double kGateCyclesPerRecord = 2000.0;

std::vector<TraceRecord> GenerateStream(size_t count) {
  uint64_t state = 2008 * 0x9e3779b97f4a7c15ULL + 0x2545F4914F6CDD1DULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<TraceRecord> records;
  records.reserve(count);
  SimTime now = 0;
  constexpr size_t kTimers = 8192;  // 2x the classifier LRU: forces churn
  std::vector<bool> open(kTimers + 1, false);
  while (records.size() < count) {
    now += next() % (2 * kMillisecond);
    TraceRecord r;
    r.timestamp = now;
    r.timer = 1 + next() % kTimers;
    r.pid = static_cast<Pid>(next() % 8);  // 0=kernel, 7 user processes
    if (!open[r.timer]) {
      r.op = TimerOp::kSet;
      r.timeout = static_cast<SimDuration>(1 + next() % 500) * kMillisecond;
      open[r.timer] = true;
    } else {
      const uint64_t pick = next() % 4;
      if (pick == 0) {
        r.op = TimerOp::kCancel;
        open[r.timer] = false;
      } else if (pick == 1) {
        r.op = TimerOp::kExpire;
        open[r.timer] = false;
      } else {
        r.op = TimerOp::kSet;  // re-arm
        r.timeout = static_cast<SimDuration>(1 + next() % 500) * kMillisecond;
      }
    }
    records.push_back(r);
  }
  return records;
}

}  // namespace
}  // namespace tempo

int main() {
  using namespace tempo;
  bench::Harness harness("micro_live_overhead", "BENCH_live.json");
  const bool quick = !harness.full();
  const size_t record_count = quick ? 500'000 : 5'000'000;

  std::printf("micro_live_overhead: %zu records%s\n", record_count,
              quick ? " (quick)" : "");
  const std::vector<TraceRecord> records = GenerateStream(record_count);

  // Baseline: the drain path with a do-nothing consumer.
  size_t sink_count = 0;
  const double base_cycles = DrainCyclesPerRecord(
      records, "bench/live", [&sink_count](const TraceRecord&) { ++sink_count; });

  // Full live analyzer on the same stream, with a per-pid grouping like
  // tempotop builds.
  live::LiveOptions options;
  options.window = kSecond;
  options.ring_windows = 1 << 15;
  for (Pid pid = 1; pid < 8; ++pid) {
    options.grouping.pid_labels[pid] = "proc" + std::to_string(pid);
  }
  options.stats_label = "bench";
  options.classifier.stats_label = "bench";
  live::LiveAnalyzer analyzer(options);
  const double live_cycles = DrainCyclesPerRecord(
      records, "bench/live", [&analyzer](const TraceRecord& r) { analyzer.Ingest(r); });
  const double delta = live_cycles - base_cycles;

  std::printf("  drain only      %8.1f cycles/record (%zu records emitted)\n",
              base_cycles, sink_count);
  std::printf("  drain + live    %8.1f cycles/record\n", live_cycles);
  std::printf("  live analyzer   %8.1f cycles/record added\n", delta);
  std::printf("  classifier: %zu tracked, %llu evicted; %llu windows evicted\n",
              analyzer.classifier().tracked(),
              static_cast<unsigned long long>(analyzer.classifier().evictions()),
              static_cast<unsigned long long>(analyzer.windows_evicted()));

  const bool lossless =
      analyzer.records_ingested() == records.size() && sink_count == records.size();
  harness.AddGate("lossless", bench::Gate::Check(lossless));
  harness.AddGate("overhead", bench::Gate::Compare(delta <= kGateCyclesPerRecord,
                                                   kGateCyclesPerRecord, delta));
  harness.Set("records", record_count);
  harness.Set("drain_cycles_per_record", base_cycles);
  harness.Set("live_cycles_per_record", live_cycles);
  harness.Set("analyzer_cycles_per_record", delta);
  harness.Set("paper_producer_cycles_per_record", 236);
  harness.Set("classifier_tracked", analyzer.classifier().tracked());
  harness.Set("classifier_evictions", analyzer.classifier().evictions());
  return harness.Finish();
}
