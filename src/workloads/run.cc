#include "src/workloads/run.h"

namespace tempo {

TraceBuffer* MakeTraceBuffer(TraceRun* run, size_t capacity, const std::string& sink,
                             LiveTapOptions* live) {
  TraceBuffer* buffer = run->Keep(std::make_unique<TraceBuffer>(capacity, sink));
  buffer->AttachCpu(&run->sim->cpu());
  if (live == nullptr || live->channels == nullptr) {
    return buffer;
  }
  RelayChannel* tap = live->channels->Register("live/" + run->label);
  buffer->SetLiveTap(tap);
  if (live->poll && live->period > 0) {
    run->keepalive.push_back(
        run->sim->SchedulePeriodic(live->period, [tap, poll = live->poll] {
          tap->FlushOpen();  // the drainer only sees published sub-buffers
          poll();
        }));
  }
  return buffer;
}

}  // namespace tempo
