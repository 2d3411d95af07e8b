// Shared helpers for the reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper and
// prints the paper's reported values next to the measured ones so the
// shapes can be compared directly (EXPERIMENTS.md records the comparison).
// Workload benches run the full 30-minute traces of Section 3.5; quick and
// smoke runs (bench/harness.h reads the mode) run 3 minutes.

#ifndef TEMPO_BENCH_BENCH_COMMON_H_
#define TEMPO_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "src/workloads/run.h"

namespace tempo {

// Standard options for reproduction runs.
inline WorkloadOptions BenchOptions() {
  WorkloadOptions options;
  options.duration = 30 * kMinute;
  options.seed = 2008;  // EuroSys'08
  if (bench::RunMode() != bench::Mode::kFull) {
    options.duration = 3 * kMinute;
  }
  return options;
}

inline void PrintHeader(const std::string& artifact, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

inline void PrintPaperNote(const std::string& note) {
  std::printf("paper: %s\n\n", note.c_str());
}

}  // namespace tempo

#endif  // TEMPO_BENCH_BENCH_COMMON_H_
