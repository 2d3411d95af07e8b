// E21 — Section 5.5: can a temporal CPU dispatcher subsume the timer
// interface?
//
// The same application mix — a soft-real-time media task (10 ms frames),
// a dozen background housekeeping tasks (tolerant periodics), and a
// watchdog-guarded request pipeline — is run twice:
//   (a) over the classic set/cancel timer interface (one timer armed per
//       need, every watchdog kick re-arms);
//   (b) declared to the TemporalDispatcher (windows, cadences, guards).
// Compared on: hardware timer programmings (the power/overhead proxy),
// timer-interface operations, and the media task's dispatch lateness.

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/adaptive/timer_surface.h"
#include "src/dispatcher/dispatcher.h"

namespace tempo {
namespace {

constexpr SimDuration kRunFor = 5 * kMinute;
constexpr SimDuration kFramePeriod = 10 * kMillisecond;
constexpr int kBackgroundTasks = 12;
constexpr SimDuration kWatchdogTimeout = 2 * kSecond;
constexpr SimDuration kRequestGap = 40 * kMillisecond;

struct Results {
  uint64_t timer_ops = 0;        // set/cancel calls into the timer layer
  uint64_t hardware_programs = 0;
  uint64_t frames = 0;
  double mean_frame_lateness_us = 0.0;
};

// (a) The classic design: everything arms its own timer.
Results RunWithRawTimers() {
  Simulator sim(5);
  SimTimerService service(&sim);
  Results results;

  // Media task: re-arms a 10 ms timer per frame.
  struct Media {
    Simulator* sim;
    SimTimerService* service;
    uint64_t frames = 0;
    SimDuration lateness_sum = 0;
    SimTime next_deadline = 0;
    void Frame() {
      ++frames;
      lateness_sum += std::max<SimDuration>(0, sim->Now() - next_deadline);
      next_deadline += kFramePeriod;
      service->Arm(std::max<SimDuration>(0, next_deadline - sim->Now()),
                   [this] { Frame(); });
    }
  };
  Media media{&sim, &service};
  media.next_deadline = kFramePeriod;
  service.Arm(kFramePeriod, [&media] { media.Frame(); });

  // Background periodics: one timer each, re-armed per tick.
  struct Background {
    Simulator* sim;
    SimTimerService* service;
    SimDuration period;
    void Tick() {
      service->Arm(period, [this] { Tick(); });
    }
  };
  std::vector<std::unique_ptr<Background>> background;
  for (int i = 0; i < kBackgroundTasks; ++i) {
    background.push_back(std::make_unique<Background>(
        Background{&sim, &service, (5 + i) * kSecond}));
    Background* raw = background.back().get();
    service.Arm(raw->period, [raw] { raw->Tick(); });
  }

  // Watchdog-guarded pipeline: every request kicks the watchdog, i.e.
  // cancel + re-arm on the raw interface.
  struct Pipeline {
    Simulator* sim;
    SimTimerService* service;
    ServiceTimerId watchdog = kInvalidServiceTimer;
    void Request() {
      if (watchdog != kInvalidServiceTimer) {
        service->Cancel(watchdog);
      }
      watchdog = service->Arm(kWatchdogTimeout, [] {});
      sim->ScheduleAfter(kRequestGap, [this] { Request(); });
    }
  };
  Pipeline pipeline{&sim, &service};
  pipeline.Request();

  sim.RunUntil(kRunFor);
  results.timer_ops = service.arms();
  // On the raw interface every arm programs the (virtual) hardware timer.
  results.hardware_programs = service.arms();
  results.frames = media.frames;
  results.mean_frame_lateness_us =
      media.frames == 0 ? 0.0
                        : static_cast<double>(media.lateness_sum) /
                              static_cast<double>(media.frames) / 1000.0;
  return results;
}

// (b) The dispatcher design: requirements, not timers.
Results RunWithDispatcher() {
  Simulator sim(5);
  TemporalDispatcher dispatcher(&sim);
  Results results;

  DispatchTask* media = dispatcher.CreateTask("media", /*weight=*/4);
  media->RunEvery(kFramePeriod, 0, [] {});

  for (int i = 0; i < kBackgroundTasks; ++i) {
    DispatchTask* task = dispatcher.CreateTask("bg" + std::to_string(i));
    // The housekeeping truth: "some convenient time around every N s".
    task->RunEvery((5 + i) * kSecond, 4 * kSecond, [] {});
  }

  DispatchTask* pipeline = dispatcher.CreateTask("pipeline");
  struct Guarded {
    Simulator* sim;
    DispatchTask* task;
    RequirementId guard = kInvalidRequirement;
    void Request() {
      if (guard == kInvalidRequirement) {
        guard = task->Guard(kWatchdogTimeout, [] {});
      } else {
        task->Kick(guard);  // bookkeeping only
      }
      sim->ScheduleAfter(kRequestGap, [this] { Request(); });
    }
  };
  Guarded guarded{&sim, pipeline};
  guarded.Request();

  sim.RunUntil(kRunFor);
  results.timer_ops = dispatcher.declared();  // interface crossings
  results.hardware_programs = dispatcher.hardware_programs();
  results.frames = media->dispatches();
  results.mean_frame_lateness_us =
      media->dispatches() == 0
          ? 0.0
          : static_cast<double>(media->total_lateness()) /
                static_cast<double>(media->dispatches()) / 1000.0;
  return results;
}

}  // namespace
}  // namespace tempo

int main() {
  using namespace tempo;
  PrintHeader("Dispatcher vs raw timers (Section 5.5)",
              "media frames + background housekeeping + watchdog pipeline, 5 min");
  PrintPaperNote(
      "\"an application interface to the CPU scheduler ... obviates the need "
      "for a separate timer interface\": declaring what code runs when lets "
      "the system batch wakeups and make watchdog kicks free");

  const Results raw = RunWithRawTimers();
  const Results dispatched = RunWithDispatcher();

  std::printf("%-32s %16s %16s\n", "", "raw timers", "dispatcher");
  std::printf("%-32s %16llu %16llu\n", "timer-interface operations",
              static_cast<unsigned long long>(raw.timer_ops),
              static_cast<unsigned long long>(dispatched.timer_ops));
  std::printf("%-32s %16llu %16llu\n", "hardware timer programmings",
              static_cast<unsigned long long>(raw.hardware_programs),
              static_cast<unsigned long long>(dispatched.hardware_programs));
  std::printf("%-32s %16llu %16llu\n", "media frames delivered",
              static_cast<unsigned long long>(raw.frames),
              static_cast<unsigned long long>(dispatched.frames));
  std::printf("%-32s %13.3f us %13.3f us\n", "mean frame lateness",
              raw.mean_frame_lateness_us, dispatched.mean_frame_lateness_us);
  std::printf(
      "\nreading: the dispatcher serves the same load with a handful of\n"
      "declared requirements instead of tens of thousands of set/cancel\n"
      "calls, fewer hardware programmings (watchdog kicks are free, slack\n"
      "periodics batch), and no loss of soft-real-time cadence.\n");
  return 0;
}
