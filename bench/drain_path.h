// The relay drain path the drain-side benches (micro_live_overhead,
// micro_latency) charge their consumers against.

#ifndef TEMPO_BENCH_DRAIN_PATH_H_
#define TEMPO_BENCH_DRAIN_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/probe.h"
#include "src/trace/relay.h"

namespace tempo {

// Drains `records` through a relay channel named `channel` into `emit`,
// the way a real run reaches a drain-side consumer, and returns cycles per
// record for the whole drain path (harvest + merge + emit).
template <typename Emit>
double DrainCyclesPerRecord(const std::vector<TraceRecord>& records, const std::string& channel,
                            Emit emit) {
  RelayChannelSet channels;
  RelayChannel* lane = channels.Register(channel);
  RelayDrainer drainer(&channels, emit);
  const uint64_t begin = obs::WallCycleClock();
  size_t logged = 0;
  for (const TraceRecord& r : records) {
    if (!lane->TryLog(r)) {
      // Ring full: drain in place (single-threaded bench, same work the
      // consumer thread would do).
      drainer.Poll();
      lane->TryLog(r);
    }
    if (++logged % 4096 == 0) {
      drainer.Poll();
    }
  }
  channels.CloseAll();
  drainer.Finish();
  const uint64_t cycles = obs::WallCycleClock() - begin;
  return static_cast<double>(cycles) / static_cast<double>(records.size());
}

}  // namespace tempo

#endif  // TEMPO_BENCH_DRAIN_PATH_H_
