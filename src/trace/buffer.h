// The trace buffer both OS models record into.
//
// The Linux study used relayfs with a 512 MiB in-kernel buffer: ordered,
// lossless up to capacity, with new events *dropped* (never overwriting old
// ones) on overflow. The Vista study used ETW, effectively unbounded for the
// trace lengths involved. One TraceBuffer models both: a record vector with
// a capacity (kRelayDefaultCapacity for relayfs, kUnbounded for ETW) past
// which new records are dropped and counted.
//
// Logging itself costs CPU: the paper measured 236 cycles per record
// (Section 3.2). The buffer charges a configurable per-record cycle cost to
// the simulated CPU so the overhead experiment can be re-run.

#ifndef TEMPO_SRC_TRACE_BUFFER_H_
#define TEMPO_SRC_TRACE_BUFFER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/cpu.h"
#include "src/trace/record.h"
#include "src/trace/relay.h"

namespace tempo {

// Per-record instrumentation cost measured in the paper (Section 3.2).
inline constexpr uint64_t kPaperLogCostCycles = 236;

class TraceBuffer {
 public:
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  // Keeps at most `capacity` records. `sink` labels the obs counters
  // (trace_records_logged / _dropped, trace_charged_cycles): "relay" for
  // the Linux relayfs buffer, "etw" for the Vista session.
  explicit TraceBuffer(size_t capacity = kRelayDefaultCapacity,
                       const std::string& sink = "relay");
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  // Charges the attached CPU, then appends `record` — or, once the buffer
  // holds `capacity` records, drops and counts it (relayfs semantics: drop
  // new, keep old). Dropped records are charged too: the instrumentation
  // pays before it finds the buffer full.
  void Log(const TraceRecord& record) {
    if (cpu_ != nullptr) {
      cpu_->ChargeCycles(cost_cycles_);
      metric_charged_->Inc(cost_cycles_);
    }
    if (records_.size() >= capacity_) {
      ++dropped_;
      metric_dropped_->Inc();
      return;
    }
    records_.push_back(record);
    metric_logged_->Inc();
    if (live_tap_ != nullptr) {
      live_tap_->TryLog(record);
    }
  }

  // Attaches a CPU to charge `cost_cycles` per Log call.
  void AttachCpu(Cpu* cpu, uint64_t cost_cycles = kPaperLogCostCycles) {
    cpu_ = cpu;
    cost_cycles_ = cost_cycles;
  }

  // Tees every *accepted* record into `tap` as well (e.g. a channel a live
  // drainer polls while the run executes); nullptr disables. Dropped
  // records are not teed, so the live view matches the recorded trace.
  void SetLiveTap(RelayChannel* tap) { live_tap_ = tap; }

  const std::vector<TraceRecord>& records() const { return records_; }
  size_t capacity() const { return capacity_; }
  uint64_t logged() const { return records_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Hands the stored records over without copying and resets the buffer
  // (records, logged and dropped) for the next run.
  std::vector<TraceRecord> TakeRecords();

 private:
  size_t capacity_;
  std::vector<TraceRecord> records_;
  uint64_t dropped_ = 0;  // since the last TakeRecords
  RelayChannel* live_tap_ = nullptr;
  Cpu* cpu_ = nullptr;
  uint64_t cost_cycles_ = kPaperLogCostCycles;
  obs::Counter* metric_logged_;
  obs::Counter* metric_dropped_;
  obs::Counter* metric_charged_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_BUFFER_H_
