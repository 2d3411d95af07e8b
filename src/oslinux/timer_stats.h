// The /proc/timer_stats debug facility.
//
// Section 3.1: "Linux already includes functionality to collect timer
// statistics as part of the kernel debug code, providing a rough estimation
// of timer usage in the Linux kernel. However, in order to observe the
// details and duration of different timers, additional information needs to
// be observed" — which is why the study built full tracing instead.
//
// tempo provides the facility anyway, both because a downstream user wants
// the cheap always-on counter view, and because it demonstrates concretely
// what the paper means: timer_stats can tell you WHO sets timers and HOW
// OFTEN, but not lifetimes, cancellation fractions, or values over time.

#ifndef TEMPO_SRC_OSLINUX_TIMER_STATS_H_
#define TEMPO_SRC_OSLINUX_TIMER_STATS_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/record.h"

namespace tempo {

// A timer_stats collector: counts arming operations per (call-site, pid)
// over the records stamped inside its Enable…Disable window, folded from a
// TraceBuffer's records. Enable/Disable mirror `echo 1 > /proc/timer_stats`.
class TimerStatsCollector {
 public:
  // Enable opens a new window (clearing the counts); Disable closes it.
  void Enable(SimTime now);
  void Disable(SimTime now);
  bool enabled() const { return begin_ != kNeverTime && end_ == kNeverTime; }

  // Counts the arming operations among `records` stamped inside the
  // window (each record batch is folded once); with no window opened yet,
  // nothing counts.
  void Fold(std::span<const TraceRecord> records);

  struct Row {
    uint64_t count = 0;
    Pid pid = kKernelPid;
    CallsiteId callsite = kUnknownCallsite;
  };

  // Rows sorted by count, descending — the /proc/timer_stats order.
  std::vector<Row> Rows() const;

  // Renders the classic report ("<count>, <pid> <comm> <function>").
  std::string Report(const CallsiteRegistry& callsites) const;

  uint64_t total_events() const { return total_; }
  SimDuration sample_period() const { return last_time_ - begin_; }

 private:
  SimTime begin_ = kNeverTime;      // window start; kNeverTime until Enable
  SimTime end_ = kNeverTime;        // window end; kNeverTime while enabled
  SimTime last_time_ = kNeverTime;  // latest time the window has covered
  uint64_t total_ = 0;
  std::map<std::pair<CallsiteId, Pid>, uint64_t> counts_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_OSLINUX_TIMER_STATS_H_
