// The synthetic trace the trace-file benches (micro_trace_pipeline,
// micro_trace_query) write and read back: six call sites, and records
// with the shapes the real workloads produce, at any scale.

#ifndef TEMPO_BENCH_SYNTHETIC_TRACE_H_
#define TEMPO_BENCH_SYNTHETIC_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/record.h"

namespace tempo {

inline std::vector<CallsiteId> MakeSites(CallsiteRegistry* callsites) {
  const CallsiteId ip = callsites->Intern("net/ip");
  const CallsiteId tcp = callsites->Intern("net/tcp", ip);
  std::vector<CallsiteId> sites;
  sites.push_back(callsites->Intern("app/select"));
  sites.push_back(tcp);
  sites.push_back(callsites->Intern("net/tcp_retransmit", tcp));
  sites.push_back(callsites->Intern("kernel/watchdog"));
  sites.push_back(callsites->Intern("app/poll"));
  sites.push_back(callsites->Intern("kernel/writeback"));
  return sites;
}

// Deterministic synthetic trace: overlapping episodes, re-arms, cancels,
// expiries, a mix of user/kernel records and timeout magnitudes — the
// same shapes the real workloads produce, at arbitrary scale.
inline std::vector<TraceRecord> GenerateTrace(size_t count,
                                              const std::vector<CallsiteId>& sites) {
  uint64_t state = 2008 * 0x9e3779b97f4a7c15ULL + 0x2545F4914F6CDD1DULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr size_t kTimers = 4096;
  std::vector<bool> open(kTimers + 1, false);
  SimTime now = 0;
  std::vector<TraceRecord> records;
  records.reserve(count);
  while (records.size() < count) {
    now += static_cast<SimTime>(next() % 3) * kMillisecond;
    TraceRecord r;
    r.timestamp = now;
    r.timer = 1 + next() % kTimers;
    r.callsite = sites[next() % sites.size()];
    r.pid = static_cast<Pid>(next() % 4);
    if (r.pid != kKernelPid) {
      r.flags |= kFlagUser;
    }
    if (!open[r.timer]) {
      r.op = next() % 4 == 0 ? TimerOp::kBlock : TimerOp::kSet;
      open[r.timer] = true;
    } else {
      switch (next() % 6) {
        case 0:
        case 1:
          r.op = TimerOp::kCancel;
          open[r.timer] = false;
          break;
        case 2:
          r.op = TimerOp::kExpire;
          open[r.timer] = false;
          break;
        case 3:
          r.op = TimerOp::kUnblock;
          if (next() % 2 == 0) {
            r.flags |= kFlagWaitSatisfied;
          }
          open[r.timer] = false;
          break;
        default:
          r.op = TimerOp::kSet;
          break;
      }
    }
    if (r.op == TimerOp::kSet || r.op == TimerOp::kBlock) {
      r.timeout = next() % 16 == 0
                      ? static_cast<SimDuration>(7 + next() % 90) * kSecond
                      : static_cast<SimDuration>(1 + next() % 500) * kMillisecond;
      r.expiry = r.timestamp + r.timeout;
      if (!r.is_user() && next() % 2 == 0) {
        r.flags |= kFlagJiffyWheel;
      }
    }
    records.push_back(r);
  }
  return records;
}

}  // namespace tempo

#endif  // TEMPO_BENCH_SYNTHETIC_TRACE_H_
