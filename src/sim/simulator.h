// The tempo discrete-event simulator.
//
// A Simulator owns virtual time, per-CPU clock domains (clock_domain.h),
// the RNG, the CPU models and the process registry. OS models
// (src/oslinux, src/osvista) build their clock interrupts and timer
// subsystems on top of a domain's ScheduleAt/Cancel; workloads never touch
// the event queues directly, only OS timer APIs — mirroring the layering
// the paper describes in Section 2.
//
// Parallel execution model (CHRONOS-style per-CPU contexts): with
// Options::cpus = N the simulator owns N ClockDomains and advances them in
// conservative windows of `lookahead` virtual nanoseconds. Within a window
// every domain only touches domain-local state, so the windows can run on
// a WorkerPool (RunParallel / RunUntilParallel); cross-domain events go
// through each domain's mailbox with latency >= lookahead and are merged
// at the barrier in a deterministic order. A threaded run is byte-identical
// to the serial run of the same seed — parallelism never costs determinism.

#ifndef TEMPO_SRC_SIM_SIMULATOR_H_
#define TEMPO_SRC_SIM_SIMULATOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/clock_domain.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"
#include "src/sim/process.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace tempo {

// Discrete-event simulation driver over one or more per-CPU clock domains.
class Simulator {
 public:
  struct Options {
    uint64_t seed = 1;
    // Number of simulated CPUs (clock domains). 1 keeps the classic
    // single-threaded event loop.
    size_t cpus = 1;
    // Conservative window width: the minimum cross-domain (IPI) latency.
    // Posts with a smaller latency are clamped up to this. Larger values
    // mean fewer barriers (faster) but coarser cross-CPU timing.
    SimDuration lookahead = kMicrosecond;
    // Obs instrument label for this instance; instruments are registered
    // per domain as sim_*{cpu="<i>",sim="<label>"}. Two simulators alive
    // at once must use distinct labels (instruments are shared by label);
    // an empty label suppresses sim self-metrics entirely.
    std::string stats_label = "sim";
  };

  explicit Simulator(uint64_t seed = 1);
  explicit Simulator(const Options& options);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  // Uninstalls the sim probe clock if it still points at this instance
  // (InstallSimProbeClock), so a destroyed simulator can never be read
  // through a dangling probe-clock pointer.
  ~Simulator();

  // Globally committed virtual time: the current event's timestamp on a
  // single-CPU simulator, the current window start on a multi-CPU one.
  // Event callbacks on domain d should read domain(d).Now().
  SimTime Now() const { return committed_now_.load(std::memory_order_relaxed); }

  // Number of clock domains (simulated CPUs).
  size_t cpu_count() const { return domains_.size(); }

  // The per-CPU clock domain handles.
  ClockDomain& domain(size_t i) { return *domains_[i]; }
  const ClockDomain& domain(size_t i) const { return *domains_[i]; }

  // Cross-domain lookahead (minimum IPI latency).
  SimDuration lookahead() const { return lookahead_; }

  // --- Boot-CPU (domain 0) conveniences ---
  //
  // The classic single-CPU API; all of it delegates to domain 0, so code
  // written against the single-threaded simulator runs unchanged.

  // Schedules `fn` at absolute time `at` on domain 0. Events scheduled in
  // the past fire at the current time (never travel backwards). Returns a
  // cancelable id.
  EventId ScheduleAt(SimTime at, std::function<void()> fn);

  // Schedules `fn` after `delay` (clamped to >= 0) on domain 0.
  EventId ScheduleAfter(SimDuration delay, std::function<void()> fn);

  // Cancels a pending domain-0 event; false if it already fired or was
  // canceled.
  bool Cancel(EventId id);

  // Keeps `fn` firing every `period` (first firing one period from now) for
  // as long as the returned token is held; dropping the token cancels the
  // series after at most one more already-scheduled firing's bookkeeping
  // (the callback itself will not run again). Background services — e.g. a
  // RelayDrainer polling trace channels — hook the event loop this way
  // without managing their own rescheduling.
  using PeriodicToken = ClockDomain::PeriodicToken;
  [[nodiscard]] PeriodicToken SchedulePeriodic(SimDuration period,
                                               std::function<void()> fn);

  Rng& rng() { return domain(0).rng(); }
  Cpu& cpu() { return domain(0).cpu(); }

  // --- Drivers ---

  // Runs one domain-0 event; returns false if its queue is empty. Only
  // meaningful on a single-CPU simulator (multi-CPU runs use the window
  // drivers below).
  bool Step();

  // Runs until every queue is empty or Stop() is called. Finalizes each
  // domain's idle accounting (Cpu::Finish) on every exit path.
  void Run();

  // Runs until virtual time reaches `deadline` (events at exactly
  // `deadline` are executed), the queues drain, or Stop() is called. Every
  // domain's clock advances to `deadline` even if its queue drained
  // earlier.
  void RunUntil(SimTime deadline);

  // Runs for `duration` more virtual time.
  void RunFor(SimDuration duration) { RunUntil(Now() + duration); }

  // Threaded equivalents: advance the domains on a WorkerPool `threads`
  // wide, the caller included (0 = one per domain), window by window. Produce byte-identical results
  // to Run()/RunUntil() for the same seed. Events executing concurrently
  // belong to different domains and must only touch domain-local state
  // (their domain's clock/RNG/Cpu and structures pinned to that domain).
  void RunParallel(size_t threads = 0);
  void RunUntilParallel(SimTime deadline, size_t threads = 0);

  // Requests that the run return. Single-CPU: after the current event.
  // Multi-CPU: at the end of the current window (both drivers agree, so
  // stopping cannot break serial/threaded identity). Callable from any
  // domain's events.
  void Stop() { stop_.store(true, std::memory_order_relaxed); }

  // Number of events executed so far, across all domains. Quiescent read.
  uint64_t events_executed() const;

  // Number of live (scheduled, not yet fired or canceled) events across
  // all domains, plus undelivered cross-domain posts. Quiescent read.
  size_t PendingEvents() const;

  ProcessTable& processes() { return processes_; }
  const ProcessTable& processes() const { return processes_; }

 private:
  friend class ClockDomain;

  // Moves every outbox entry into its target domain's queue, in
  // (delivery time, sender index, send order) order. Returns the number
  // delivered. Runs only at a barrier (no domain is executing).
  size_t DeliverMailboxes();

  // Single-CPU fast path preserving the classic event-at-a-time loop.
  void RunLegacy(SimTime deadline);

  // Finalizes idle accounting on every domain at its local clock.
  void FinishCpus();

  SimDuration lookahead_;
  std::atomic<SimTime> committed_now_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<ClockDomain>> domains_;
  ProcessTable processes_;
};

// Makes the obs probe clock read this simulator's committed virtual time
// (in nanoseconds) instead of the TSC, so metrics snapshots are
// deterministic and sim-mode runs perform no wall-clock reads. Pass
// nullptr to restore the default wall clock. The installed simulator
// auto-uninstalls itself on destruction.
void InstallSimProbeClock(Simulator* sim);

}  // namespace tempo

#endif  // TEMPO_SRC_SIM_SIMULATOR_H_
