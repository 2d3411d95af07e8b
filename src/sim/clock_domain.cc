#include "src/sim/clock_domain.h"

#include <cassert>
#include <utility>

#include "src/sim/simulator.h"

namespace tempo {

ClockDomain::ClockDomain(Simulator* sim, size_t index, uint64_t rng_seed,
                         obs::Counter* metric_events, obs::Gauge* metric_queue_hwm)
    : sim_(sim),
      index_(index),
      rng_(rng_seed),
      metric_events_(metric_events),
      metric_queue_hwm_(metric_queue_hwm) {}

EventId ClockDomain::ScheduleAt(SimTime at, std::function<void()> fn) {
  if (at < now_) {
    at = now_;
  }
  const EventId id = queue_.Schedule(at, std::move(fn));
  if (metric_queue_hwm_ != nullptr) {
    metric_queue_hwm_->Max(static_cast<int64_t>(queue_.Size()));
  }
  return id;
}

EventId ClockDomain::ScheduleAfter(SimDuration delay, std::function<void()> fn) {
  if (delay < 0) {
    delay = 0;
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool ClockDomain::Cancel(EventId id) { return queue_.Cancel(id); }

namespace {

// State of one periodic series. The token returned to the caller is the
// only shared_ptr; scheduled events hold weak_ptrs, so dropping the token
// makes the next firing a no-op and the chain stops rescheduling.
struct PeriodicState {
  SimDuration period;
  std::function<void()> fn;
};

void FirePeriodic(ClockDomain* domain, const std::weak_ptr<PeriodicState>& weak) {
  std::shared_ptr<PeriodicState> state = weak.lock();
  if (state == nullptr) {
    return;  // token dropped: series canceled
  }
  state->fn();
  domain->ScheduleAfter(state->period,
                        [domain, weak] { FirePeriodic(domain, weak); });
}

}  // namespace

ClockDomain::PeriodicToken ClockDomain::SchedulePeriodic(SimDuration period,
                                                         std::function<void()> fn) {
  if (period <= 0) {
    period = 1;
  }
  auto state = std::make_shared<PeriodicState>();
  state->period = period;
  state->fn = std::move(fn);
  std::weak_ptr<PeriodicState> weak = state;
  ScheduleAfter(period, [this, weak] { FirePeriodic(this, weak); });
  return state;
}

SimTime ClockDomain::Post(size_t target, SimDuration latency, std::function<void()> fn) {
  const SimDuration lookahead = sim_->lookahead();
  if (latency < lookahead) {
    latency = lookahead;  // the conservative-window contract
  }
  const SimTime at = now_ + latency;
  outbox_.push_back(CrossPost{target % sim_->cpu_count(), at, post_seq_++, std::move(fn)});
  return at;
}

void ClockDomain::StepOne() {
  EventQueue::Fired fired = queue_.Pop();
  now_ = fired.at;
  ++events_executed_;
  if (metric_events_ != nullptr) {
    metric_events_->Inc();
  }
  fired.fn();
}

void ClockDomain::ExecuteWindow(SimTime limit) {
  // NextTime() returns kNeverTime on an empty queue, which never compares
  // <= limit (limit < kNeverTime by construction in RunUntilParallel).
  while (queue_.NextTime() <= limit) {
    StepOne();
  }
}

}  // namespace tempo
