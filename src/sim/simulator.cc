#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <tuple>
#include <utility>

#include "src/obs/probe.h"
#include "src/sim/worker_pool.h"

namespace tempo {

namespace {

// The simulator whose virtual clock backs the obs probe clock. A plain
// global: the probe clock is a captureless function pointer, and tempo
// processes drive one simulation at a time. ~Simulator() uninstalls
// itself, so this can never dangle past the simulator's lifetime.
Simulator* g_probe_clock_sim = nullptr;

uint64_t SimProbeClock() {
  return static_cast<uint64_t>(g_probe_clock_sim->Now());
}

// Derives domain i's RNG seed from the master seed. Domain 0 keeps the
// master seed verbatim so a 1-CPU simulator reproduces the classic
// single-threaded streams bit for bit; the others get SplitMix64-scrambled
// independent streams.
uint64_t DomainSeed(uint64_t seed, size_t index) {
  if (index == 0) {
    return seed;
  }
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(index);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Simulator::Simulator(uint64_t seed) : Simulator(Options{.seed = seed}) {}

Simulator::Simulator(const Options& options)
    : lookahead_(std::max<SimDuration>(1, options.lookahead)) {
  const size_t cpus = std::max<size_t>(1, options.cpus);
  obs::Registry& reg = obs::Registry::Global();
  domains_.reserve(cpus);
  for (size_t i = 0; i < cpus; ++i) {
    obs::Counter* events = nullptr;
    obs::Gauge* hwm = nullptr;
    if (!options.stats_label.empty()) {
      const obs::Labels labels = {{"cpu", std::to_string(i)},
                                  {"sim", options.stats_label}};
      events = reg.GetCounter("sim_events_executed", labels,
                              "Events executed by the sim event loop");
      hwm = reg.GetGauge("sim_event_queue_depth_hwm", labels,
                         "High-water mark of live events in the pending-event queue");
      // The gauge is per-instance, not per-process: a fresh simulator
      // re-baselines it so back-to-back sims sharing a label never report
      // a stale high-water mark (two sims *alive at once* must still use
      // distinct labels, like TimerService).
      hwm->Set(0);
    }
    domains_.push_back(std::unique_ptr<ClockDomain>(
        new ClockDomain(this, i, DomainSeed(options.seed, i), events, hwm)));
  }
}

Simulator::~Simulator() {
  if (g_probe_clock_sim == this) {
    InstallSimProbeClock(nullptr);
  }
}

EventId Simulator::ScheduleAt(SimTime at, std::function<void()> fn) {
  return domain(0).ScheduleAt(at, std::move(fn));
}

EventId Simulator::ScheduleAfter(SimDuration delay, std::function<void()> fn) {
  return domain(0).ScheduleAfter(delay, std::move(fn));
}

bool Simulator::Cancel(EventId id) { return domain(0).Cancel(id); }

Simulator::PeriodicToken Simulator::SchedulePeriodic(SimDuration period,
                                                     std::function<void()> fn) {
  return domain(0).SchedulePeriodic(period, std::move(fn));
}

uint64_t Simulator::events_executed() const {
  uint64_t total = 0;
  for (const auto& d : domains_) {
    total += d->events_executed_;
  }
  return total;
}

size_t Simulator::PendingEvents() const {
  size_t total = 0;
  for (const auto& d : domains_) {
    total += d->queue_.Size() + d->outbox_.size();
  }
  return total;
}

void Simulator::FinishCpus() {
  for (auto& d : domains_) {
    d->cpu_.Finish(d->now_);
  }
}

bool Simulator::Step() {
  ClockDomain& d0 = *domains_[0];
  const SimTime next = d0.queue_.NextTime();
  if (next == kNeverTime) {
    return false;
  }
  // Publish the event's timestamp before running it, so probe-clock reads
  // inside the callback see the firing time (classic semantics).
  committed_now_.store(next, std::memory_order_relaxed);
  d0.StepOne();
  return true;
}

void Simulator::RunLegacy(SimTime deadline) {
  // The classic event-at-a-time loop on the boot CPU, preserved exactly
  // for single-CPU simulators (every trace produced before clock domains
  // existed reproduces bit for bit).
  ClockDomain& d0 = *domains_[0];
  stop_.store(false, std::memory_order_relaxed);
  while (!stop_.load(std::memory_order_relaxed)) {
    const SimTime next = d0.queue_.NextTime();
    if (next == kNeverTime || next > deadline) {
      break;
    }
    Step();
  }
  if (deadline != kNeverTime && !stop_.load(std::memory_order_relaxed) &&
      d0.now_ < deadline) {
    d0.now_ = deadline;
    committed_now_.store(deadline, std::memory_order_relaxed);
  }
  // Finalize idle accounting on every exit path — Run() used to skip this,
  // making wakeup/idle stats disagree between the two drivers.
  FinishCpus();
}

void Simulator::Run() { RunUntilParallel(kNeverTime, 1); }

void Simulator::RunUntil(SimTime deadline) { RunUntilParallel(deadline, 1); }

void Simulator::RunParallel(size_t threads) { RunUntilParallel(kNeverTime, threads); }

size_t Simulator::DeliverMailboxes() {
  struct Delivery {
    size_t target;
    SimTime at;
    size_t sender;
    uint64_t seq;
    std::function<void()> fn;
  };
  std::vector<Delivery> all;
  for (size_t sender = 0; sender < domains_.size(); ++sender) {
    for (ClockDomain::CrossPost& post : domains_[sender]->outbox_) {
      all.push_back(Delivery{post.target, post.at, sender, post.seq, std::move(post.fn)});
    }
    domains_[sender]->outbox_.clear();
  }
  // (time, sender, send order) per receiver: the delivery schedule is a
  // pure function of what the domains posted, not of thread interleaving.
  std::sort(all.begin(), all.end(), [](const Delivery& a, const Delivery& b) {
    return std::tie(a.target, a.at, a.sender, a.seq) <
           std::tie(b.target, b.at, b.sender, b.seq);
  });
  for (Delivery& d : all) {
    ClockDomain& dom = *domains_[d.target];
    // Post() clamps latency to the lookahead, so delivery can never land
    // in the receiver's executed past.
    assert(d.at >= dom.now_);
    dom.ScheduleAt(d.at, std::move(d.fn));
  }
  return all.size();
}

void Simulator::RunUntilParallel(SimTime deadline, size_t threads) {
  if (domains_.size() == 1) {
    RunLegacy(deadline);
    return;
  }
  stop_.store(false, std::memory_order_relaxed);
  const bool drain = deadline == kNeverTime;
  // The windowed driver every multi-CPU run shares. Domains are tasks: the
  // pool's static round-robin keeps each domain on one participant for the
  // whole run, and width 1 executes the windows inline in domain order.
  WorkerPool pool(threads == 0 ? domains_.size() : std::min(threads, domains_.size()));
  while (!stop_.load(std::memory_order_relaxed)) {
    DeliverMailboxes();
    SimTime t = kNeverTime;
    for (const auto& d : domains_) {
      t = std::min(t, d->queue_.NextTime());
    }
    if (t == kNeverTime || (!drain && t > deadline)) {
      break;  // outboxes were just drained, so nothing is in flight either
    }
    // The window is the half-open interval [t, t + lookahead): posts made
    // inside it are delivered at >= t + lookahead, i.e. never into a
    // window that is already executing.
    committed_now_.store(t, std::memory_order_relaxed);
    SimTime limit = t > kNeverTime - lookahead_ ? kNeverTime - 1 : t + lookahead_ - 1;
    if (!drain) {
      limit = std::min(limit, deadline);
    }
    pool.Run(domains_.size(), [this, limit](size_t d) { domains_[d]->ExecuteWindow(limit); });
  }
  if (!drain && !stop_.load(std::memory_order_relaxed)) {
    for (auto& d : domains_) {
      if (d->now_ < deadline) {
        d->now_ = deadline;
      }
    }
    committed_now_.store(deadline, std::memory_order_relaxed);
  }
  FinishCpus();
}

void InstallSimProbeClock(Simulator* sim) {
  g_probe_clock_sim = sim;
  obs::SetProbeClock(sim != nullptr ? &SimProbeClock : nullptr);
}

}  // namespace tempo
